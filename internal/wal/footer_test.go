package wal

import (
	"bytes"
	"io"
	"os"
	"path"
	"testing"

	"repro/internal/faultinject"
)

func snapshotState(t *testing.T, l *Log, state string) {
	t.Helper()
	if err := l.Snapshot(func(w io.Writer) error { _, err := io.WriteString(w, state); return err }); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
}

func TestSnapshotFooterRoundTrip(t *testing.T) {
	fsys := faultinject.NewMemFS()
	l := openTestLog(t, fsys, 1<<20)
	for i := 0; i < 7; i++ {
		if err := l.Append(RatingRecord(testRating(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	snapshotState(t, l, `{"v":1}`)

	raw, cur, ft, err := l.LatestSnapshot()
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	if ft.Records != 7 {
		t.Fatalf("footer records = %d, want 7", ft.Records)
	}
	if cur.Seg != l.SegmentSeq() || cur.Off != 0 {
		t.Fatalf("snapshot cursor %+v, want {%d 0}", cur, l.SegmentSeq())
	}
	content, ft2, present, err := SplitSnapshotFooter(raw)
	if err != nil || !present || ft2 != ft {
		t.Fatalf("SplitSnapshotFooter: present=%v ft=%+v err=%v", present, ft2, err)
	}
	if string(content) != `{"v":1}` {
		t.Fatalf("content %q", content)
	}

	// Recovery strips the footer before handing the snapshot out.
	l.Close()
	_, rec, err := Open(Options{Dir: "wal", FS: fsys, Policy: SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if string(rec.Snapshot) != `{"v":1}` {
		t.Fatalf("recovered snapshot %q, want footer stripped", rec.Snapshot)
	}
}

// A corrupted footer (or content, which the footer CRC also binds)
// must make recovery fall back instead of loading damaged state.
func TestSnapshotCorruptFooterFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name string
		flip func(data []byte) []byte
	}{
		{"footer-crc", func(d []byte) []byte { d[len(d)-6] ^= 0xff; return d }},
		{"footer-count", func(d []byte) []byte { d[len(d)-16] ^= 0x01; return d }},
		{"content", func(d []byte) []byte { d[2] ^= 0xff; return d }},
		{"truncated", func(d []byte) []byte { return append(d[:3], d[len(d)-snapFooterLen:]...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := faultinject.NewMemFS()
			l := openTestLog(t, fsys, 1<<20)
			if err := l.Append(RatingRecord(testRating(1))); err != nil {
				t.Fatalf("append: %v", err)
			}
			snapshotState(t, l, `{"good":1}`)
			if err := l.Append(RatingRecord(testRating(2))); err != nil {
				t.Fatalf("append: %v", err)
			}
			snapshotState(t, l, `{"good":2}`)
			l.Close()

			// Corrupt the newest snapshot on disk.
			name := ""
			names, err := fsys.ReadDir("wal")
			if err != nil {
				t.Fatalf("readdir: %v", err)
			}
			best := -1
			for _, n := range names {
				if seq, ok := parseSeq(n, snapPrefix, snapSuffix); ok && seq > best {
					best, name = seq, n
				}
			}
			full := path.Join("wal", name)
			data, _, err := readFile(fsys, full, 0)
			if err != nil {
				t.Fatalf("read snap: %v", err)
			}
			data = tc.flip(bytes.Clone(data))
			f, err := fsys.OpenFile(full, os.O_WRONLY|os.O_TRUNC, 0o644)
			if err != nil {
				t.Fatalf("rewrite snap: %v", err)
			}
			if _, err := f.Write(data); err != nil {
				t.Fatalf("rewrite snap: %v", err)
			}
			f.Close()

			warned := false
			_, rec, err := Open(Options{Dir: "wal", FS: fsys, Policy: SyncNever,
				Warnf: func(string, ...any) { warned = true }})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if string(rec.Snapshot) == `{"good":2}` {
				t.Fatal("recovery loaded a snapshot with a corrupted footer")
			}
			if !warned {
				t.Fatal("expected a verification warning")
			}
			// The damaged snapshot also can't be served to a follower.
			// (Recovery compacted it away or fell back past it; either
			// way LatestSnapshot must not return damaged bytes as ok.)
			if _, _, present, err := SplitSnapshotFooter(data); present && err == nil {
				t.Fatal("corrupted snapshot still verifies")
			}
		})
	}
}

// Legacy snapshots (written before the footer format) still recover:
// no magic means no footer, not corruption.
func TestSnapshotLegacyNoFooterStillRecovers(t *testing.T) {
	fsys := faultinject.NewMemFS()
	l := openTestLog(t, fsys, 1<<20)
	snapshotState(t, l, `{"legacy":true}`)
	l.Close()

	// Strip the footer to emulate a pre-footer file.
	names, _ := fsys.ReadDir("wal")
	for _, n := range names {
		if _, ok := parseSeq(n, snapPrefix, snapSuffix); !ok {
			continue
		}
		full := path.Join("wal", n)
		data, _, err := readFile(fsys, full, 0)
		if err != nil {
			t.Fatalf("read snap: %v", err)
		}
		f, err := fsys.OpenFile(full, os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			t.Fatalf("rewrite snap: %v", err)
		}
		if _, err := f.Write(data[:len(data)-snapFooterLen]); err != nil {
			t.Fatalf("rewrite snap: %v", err)
		}
		f.Close()
	}

	l2, rec, err := Open(Options{Dir: "wal", FS: fsys, Policy: SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if string(rec.Snapshot) != `{"legacy":true}` {
		t.Fatalf("legacy snapshot not recovered: %q", rec.Snapshot)
	}
	// But the bootstrap path refuses it: remote verification needs the
	// footer.
	if _, _, _, err := l2.LatestSnapshot(); err == nil {
		t.Fatal("LatestSnapshot accepted a footer-less snapshot")
	}
}
