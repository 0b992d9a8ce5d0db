package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/randx"
	"repro/internal/rating"
)

// startupRatings is a seeded history the shape of perfbench
// serve-mixed's: 40k ratings of 3000 objects by 30000 raters over 300
// rating-days, in time order.
func startupRatings() []rating.Rating {
	const n, objects, raters, span = 40000, 3000, 30000, 300.0
	rng := randx.New(7)
	quality := make([]float64, objects)
	for i := range quality {
		quality[i] = rng.Uniform(0.2, 0.9)
	}
	rs := make([]rating.Rating, n)
	for i := range rs {
		obj := rng.Intn(objects)
		v := min(max(quality[obj]+rng.Normal(0, 0.1), 0), 1)
		rs[i] = rating.Rating{
			Rater:  rating.RaterID(rng.Intn(raters)),
			Object: rating.ObjectID(obj),
			Value:  v,
			Time:   span * float64(i) / n,
		}
	}
	return rs
}

// BenchmarkPrimaryStartup times a primary's restart up to the point
// where it would serve: newPrimary (WAL open, recovery, baseline
// snapshot, stream rebuild) then abort, on a fresh copy of one
// -wal -shards 2 -stream-detect directory holding startupRatings. The
// copy is made outside the timer. In "tail" the directory was left by
// a crash, so every rating replays from the WAL tail (perfbench's
// set-up); in "snapshot" it was closed gracefully, so recovery seeds
// from the shard snapshots.
func BenchmarkPrimaryStartup(b *testing.B) {
	for _, c := range []struct {
		name     string
		graceful bool
	}{{"tail", false}, {"snapshot", true}} {
		b.Run(c.name, func(b *testing.B) {
			// newPrimary reports what it recovered on stdout; keep that
			// off the benchmark's result line.
			devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer devnull.Close()
			stdout := os.Stdout
			os.Stdout = devnull
			defer func() { os.Stdout = stdout }()
			root := b.TempDir()
			tmpl := filepath.Join(root, "template")
			o, err := parseFlags([]string{"-wal", tmpl, "-shards", "2", "-stream-detect", "-fsync", "always"})
			if err != nil {
				b.Fatal(err)
			}
			d, err := newPrimary(o)
			if err != nil {
				b.Fatal(err)
			}
			rs := startupRatings()
			for len(rs) > 0 {
				k := min(len(rs), 1024)
				if err := d.journal.SubmitAll(rs[:k]); err != nil {
					b.Fatal(err)
				}
				rs = rs[k:]
			}
			if c.graceful {
				if err := d.close(); err != nil {
					b.Fatal(err)
				}
			} else {
				d.abort()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o.walDir = filepath.Join(root, fmt.Sprintf("run%d", i))
				if err := copyDir(tmpl, o.walDir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				d, err := newPrimary(o)
				if err != nil {
					b.Fatal(err)
				}
				d.abort()
				b.StopTimer()
				if err := os.RemoveAll(o.walDir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// copyDir copies the regular files under src to dst and syncs each
// copy, so the timed start's fsyncs do not write the copy back.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		if err := out.Sync(); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
