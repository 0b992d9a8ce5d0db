package main

import (
	"strconv"
	"testing"

	"repro/internal/shard"
	"repro/internal/shard/shardtest"
	"repro/internal/wal"
)

// build parses a ratingd command line and hands it to one of the role
// constructors run() calls. The caller shuts the daemon down with
// close (graceful) or abort (a crash: no final snapshot).
func build(t *testing.T, ctor func(options) (*daemon, error), args ...string) *daemon {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ctor(o)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// walArgs is the command line of a durable daemon with n shards. Every
// submit flushes at once (-batch 1, no ticker) and the logs skip fsync,
// which keeps the tests fast and free of timing.
func walArgs(dir string, n int, extra ...string) []string {
	return append([]string{"-wal", dir, "-shards", strconv.Itoa(n),
		"-fsync", "never", "-batch", "1", "-batch-interval=-1ns"}, extra...)
}

// walPrimary builds a durable primary over dir with n shards.
func walPrimary(t *testing.T, dir string, n int, extra ...string) *daemon {
	t.Helper()
	return build(t, newPrimary, walArgs(dir, n, extra...)...)
}

func closeDaemon(t *testing.T, d *daemon) {
	t.Helper()
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
}

func testWALOpts(dir string) wal.Options {
	return wal.Options{Dir: dir, Policy: wal.SyncNever}
}

func engineFingerprint(t *testing.T, e *shard.Engine, objects int) string {
	t.Helper()
	fp, err := shardtest.Fingerprint(e, objects)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-b", "7"}); err == nil {
		t.Fatal("invalid trust config accepted")
	}
}

func TestRunRejectsBadFsyncPolicy(t *testing.T) {
	if err := run([]string{"-fsync", "sometimes"}); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}
