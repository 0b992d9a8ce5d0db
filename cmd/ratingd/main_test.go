package main

import (
	"strconv"
	"strings"
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
// submit flushes at once (-batch 1) and the logs skip fsync, which
// keeps the tests fast and free of timing.
func walArgs(dir string, n int, extra ...string) []string {
	return append([]string{"-wal", dir, "-shards", strconv.Itoa(n),
		"-fsync", "never", "-batch", "1"}, extra...)
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
	parse := func(args []string) error { _, err := parseFlags(args); return err }
	for _, tc := range []struct {
		args  []string
		check func([]string) error
		want  string // the error names this
	}{
		{[]string{"-nope"}, run, "-nope"},
		{[]string{"-b", "7"}, run, ""},
		// Checked through parseFlags: a run() that accepted it would
		// serve instead of returning.
		{[]string{"-batch-interval", "-1ns"}, parse, "-batch-interval"},
	} {
		if err := tc.check(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want a refusal naming %q", tc.args, err, tc.want)
		}
	}
}

func TestRunRejectsBadFsyncPolicy(t *testing.T) {
	if err := run([]string{"-fsync", "sometimes"}); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}
