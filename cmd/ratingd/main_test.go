package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/rating"
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

// ratingsBody renders rs as a POST /v1/ratings body.
func ratingsBody(rs []rating.Rating) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf(`{"rater":%d,"object":%d,"value":%g,"time":%g}`, r.Rater, r.Object, r.Value, r.Time)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// submitBoth posts rs to the daemon at base and feeds them to oracle.
func submitBoth(t *testing.T, base string, oracle *core.System, rs []rating.Rating) {
	t.Helper()
	if res, data := postJSON(t, base+"/v1/ratings", ratingsBody(rs)); res.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", res.StatusCode, data)
	}
	if err := oracle.SubmitAll(rs); err != nil {
		t.Fatal(err)
	}
}

// getAggregate reads obj's aggregate from the daemon at base.
func getAggregate(t *testing.T, base string, obj rating.ObjectID) api.AggregateResponse {
	t.Helper()
	res, data := getBody(t, fmt.Sprintf("%s/v1/objects/%d/aggregate", base, obj))
	var agg api.AggregateResponse
	if err := json.Unmarshal(data, &agg); res.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("aggregate %d: %d %v (%s)", obj, res.StatusCode, err, data)
	}
	return agg
}

// requireFreshAggregate reads obj's aggregate from base twice and
// requires both to equal the oracle's bit for bit and to differ from
// before, so a stale answer cannot pass. It returns the answer.
func requireFreshAggregate(t *testing.T, base string, oracle *core.System, obj rating.ObjectID, before api.AggregateResponse) api.AggregateResponse {
	t.Helper()
	res, err := oracle.Aggregate(obj)
	if err != nil {
		t.Fatal(err)
	}
	want := api.AggregateResponse{Object: int(res.Object), Value: res.Value, Used: res.Used, Filtered: res.Filtered, FellBack: res.FellBack}
	for i := 0; i < 2; i++ {
		got := getAggregate(t, base, obj)
		if got != want || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("read %d: served %+v, oracle %+v", i, got, want)
		}
	}
	if want == before {
		t.Fatalf("the change left object %d's aggregate at %+v: the test proves nothing", obj, before)
	}
	return want
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
		{[]string{"-batch", "-1"}, parse, "-batch"},
		{[]string{"-wal-segment-bytes", "-1"}, parse, "-wal-segment-bytes"},
		{[]string{"-fsync", "interval", "-fsync-interval", "0"}, parse, "-fsync-interval"},
		{[]string{"-maintain-every", "10"}, parse, "-maintain-every"},
		{[]string{"-cluster", "http://a,http://b", "-cluster-self", "http://a",
			"-stream-detect", "-maintain-every", "10"}, parse, "-maintain-every"},
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
