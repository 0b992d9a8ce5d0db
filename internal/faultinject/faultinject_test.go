package faultinject

import (
	"errors"
	"io"
	"math"
	"os"
	"testing"
)

func writeFile(t *testing.T, m *MemFS, name, data string) File {
	t.Helper()
	f, err := m.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(data)); err != nil {
		t.Fatal(err)
	}
	return f
}

func readAll(t *testing.T, m *MemFS, name string) string {
	t.Helper()
	f, err := m.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.NewSectionReader(f, 0, math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestUnsyncedWritesVanishOnCrash(t *testing.T) {
	m := NewMemFS()
	f := writeFile(t, m, "d/a", "hello")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.OpenFile("d/a", os.O_RDONLY, 0); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unsynced+undirsynced file survived crash: %v", err)
	}
}

func TestSyncedContentNeedsDirSyncForEntry(t *testing.T) {
	m := NewMemFS()
	f := writeFile(t, m, "d/a", "hello")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Content synced, entry not: file still lost.
	files := m.DurableFiles()
	if _, ok := files["d/a"]; ok {
		t.Fatal("entry durable without dir sync")
	}
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got := readAll(t, m, "d/a"); got != "hello" {
		t.Fatalf("recovered %q, want hello", got)
	}
}

func TestRenameWithoutDirSyncRollsBack(t *testing.T) {
	m := NewMemFS()
	f := writeFile(t, m, "d/a.tmp", "v1")
	f.Sync()
	f.Close()
	m.SyncDir("d")

	if err := m.Rename("d/a.tmp", "d/a"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got := readAll(t, m, "d/a.tmp"); got != "v1" {
		t.Fatalf("old name lost: %q", got)
	}
	if _, err := m.OpenFile("d/a", os.O_RDONLY, 0); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("rename survived crash without dir sync")
	}
}

func TestRenameOfUnsyncedFileLeavesEmptyFile(t *testing.T) {
	// The classic broken atomic-rename: temp file written but never
	// fsynced, renamed over the target, dir synced. The entry is
	// durable but the content is not — crash leaves an empty file.
	m := NewMemFS()
	f := writeFile(t, m, "d/state.tmp", "important")
	f.Close() // no Sync
	m.SyncDir("d")
	m.Rename("d/state.tmp", "d/state")
	m.SyncDir("d")
	m.Crash()
	if got := readAll(t, m, "d/state"); got != "" {
		t.Fatalf("unsynced content became durable: %q", got)
	}
}

func TestAppendTruncateRoundTrip(t *testing.T) {
	m := NewMemFS()
	f := writeFile(t, m, "d/log", "abcdef")
	f.Sync()
	f.Close()
	m.SyncDir("d")

	g, err := m.OpenFile("d/log", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Truncate(3); err != nil {
		t.Fatal(err)
	}
	g.Sync()
	g.Close()
	if got := readAll(t, m, "d/log"); got != "abc" {
		t.Fatalf("truncate: %q", got)
	}

	a, err := m.OpenFile("d/log", os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Write([]byte("XY"))
	a.Sync()
	a.Close()
	if got := readAll(t, m, "d/log"); got != "abcXY" {
		t.Fatalf("append after truncate: %q", got)
	}
}

func TestStaleHandleAfterCrash(t *testing.T) {
	m := NewMemFS()
	f := writeFile(t, m, "d/a", "x")
	f.Sync()
	m.SyncDir("d")
	m.Crash()
	if _, err := f.Write([]byte("y")); err == nil {
		t.Fatal("stale handle write succeeded")
	}
}

func TestCrashAtOpStopsEverything(t *testing.T) {
	m := NewMemFS()
	m.SetInjector(CrashAtOp(1, "sync"))
	f := writeFile(t, m, "d/a", "x")
	if err := f.Sync(); err != nil { // sync #0: fine
		t.Fatal(err)
	}
	f.Write([]byte("y"))
	if err := f.Sync(); !errors.Is(err, ErrCrashed) { // sync #1: crash
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	if _, err := f.Write([]byte("z")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op: %v", err)
	}
	if !m.Crashed() {
		t.Fatal("not marked crashed")
	}
	m.Crash()
	if m.Crashed() {
		t.Fatal("Crash did not reboot")
	}
}

func TestShortWriteKeepsPrefix(t *testing.T) {
	m := NewMemFS()
	m.SetInjector(func(op Op) *Fault {
		if op.Kind == "write" {
			return &Fault{Err: ErrInjected, Keep: 2}
		}
		return nil
	})
	f, err := m.OpenFile("d/a", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("hello"))
	if !errors.Is(err, ErrInjected) || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	m.SetInjector(nil)
	f.Sync()
	m.SyncDir("d")
	if got := readAll(t, m, "d/a"); got != "he" {
		t.Fatalf("short write kept %q", got)
	}
}

func TestSeededInjectorIsDeterministic(t *testing.T) {
	run := func() []string {
		in := NewSeededInjector(42, 0.5)
		var out []string
		for i := 0; i < 200; i++ {
			kind := []string{"write", "sync", "rename", "syncdir", "open"}[i%5]
			f := in(Op{Index: i, Kind: kind, Name: "x"})
			switch {
			case f == nil:
				out = append(out, "ok")
			case f.Crash:
				out = append(out, "crash")
			default:
				out = append(out, f.Err.Error())
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: %q vs %q", i, a[i], b[i])
		}
	}
	faults := 0
	for _, s := range a {
		if s != "ok" {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("degenerate injector: %d/%d faults", faults, len(a))
	}
}

func TestOSFSBasics(t *testing.T) {
	dir := t.TempDir()
	fsys := OS()
	if err := fsys.MkdirAll(dir+"/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenFile(dir+"/sub/a.log", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	names, err := fsys.ReadDir(dir + "/sub")
	if err != nil || len(names) != 1 || names[0] != "a.log" {
		t.Fatalf("names=%v err=%v", names, err)
	}
	if err := fsys.Rename(dir+"/sub/a.log", dir+"/sub/b.log"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(dir + "/sub/b.log"); err != nil {
		t.Fatal(err)
	}
}
