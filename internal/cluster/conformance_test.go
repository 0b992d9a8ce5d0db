package cluster

// N-node conformance: the partitioned cluster must be externally
// indistinguishable from one core.System. The seeded shardtest
// workload is replayed through the router — submits fan out to
// keyspace owners, windows run the scan/apply exchange, reads merge —
// and the full trace (every observation, trust value, aggregate, and
// verdict at %.17g) must be byte-identical to the single-threaded
// oracle's, for 1-, 2- and 3-node clusters at several shard counts.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard/shardtest"
)

func oracleTrace(t *testing.T, w shardtest.Workload) string {
	t.Helper()
	oracle, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := shardtest.Run(shardtest.Oracle{System: oracle}, w)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestClusterConformance(t *testing.T) {
	for _, nodes := range []int{1, 2, 3} {
		for _, shards := range []int{1, 2, 4, 8} {
			nodes, shards := nodes, shards
			t.Run(fmt.Sprintf("nodes=%d/shards=%d", nodes, shards), func(t *testing.T) {
				t.Parallel()
				w := shardtest.Workload{Seed: 4200 + int64(10*nodes+shards), Months: 2, PerMonth: 250}
				want := oracleTrace(t, w)

				tc := newTestCluster(t, nodes, shards)
				got, err := shardtest.Run(tc.system(), w)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("cluster trace diverged from oracle:\n--- oracle\n%s--- cluster\n%s", want, got)
				}

				// Trust replicated: every member holds the identical full
				// trust map, including nodes that own few objects.
				base := tc.members[0].eng.TrustSnapshot()
				for i, n := range tc.members[1:] {
					snap := n.eng.TrustSnapshot()
					if len(snap) != len(base) {
						t.Fatalf("member %d: %d trust records, member 0 has %d", i+1, len(snap), len(base))
					}
					for id, v := range base {
						if snap[id] != v {
							t.Fatalf("member %d: trust[%d]=%v, member 0 has %v", i+1, id, snap[id], v)
						}
					}
				}
			})
		}
	}
}

// TestClusterConformanceEmptyRange pins the degenerate ownership case:
// a member owning zero keyspace still replicates trust and still takes
// applies, and the cluster's trace stays byte-identical to the oracle.
func TestClusterConformanceEmptyRange(t *testing.T) {
	w := shardtest.Workload{Seed: 77, Months: 2, PerMonth: 200}
	want := oracleTrace(t, w)

	tc := newTestClusterTable(t, 3, 2, func(urls []string) Table {
		return Table{Epoch: 1, Nodes: []Node{
			{URL: urls[0], Lo: 0, Hi: 1 << 31},
			{URL: urls[1], Lo: 1 << 31, Hi: 1 << 31}, // owns nothing
			{URL: urls[2], Lo: 1 << 31, Hi: 1 << 32},
		}}
	})
	got, err := shardtest.Run(tc.system(), w)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("empty-range cluster diverged from oracle:\n--- oracle\n%s--- cluster\n%s", want, got)
	}

	// The empty member holds no ratings but the full replicated trust
	// state.
	if n := tc.members[1].eng.Len(); n != 0 {
		t.Fatalf("empty-range member stores %d ratings", n)
	}
	if got, want := len(tc.members[1].eng.TrustSnapshot()), len(tc.members[0].eng.TrustSnapshot()); got != want || want == 0 {
		t.Fatalf("empty-range member has %d trust records, want %d (nonzero)", got, want)
	}
}

// TestClusterSnapshotRoundTrip: the router's merged snapshot restores
// into a fresh cluster with a different node count, and the restored
// cluster serves identical state.
func TestClusterSnapshotRoundTrip(t *testing.T) {
	w := shardtest.Workload{Seed: 81, Months: 1, PerMonth: 200}
	src := newTestCluster(t, 2, 2)
	if _, err := shardtest.Run(src.system(), w); err != nil {
		t.Fatal(err)
	}
	srcFP, err := shardtest.Fingerprint(src.system(), w.Objects)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.router.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newTestCluster(t, 3, 4)
	if err := dst.router.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dstFP, err := shardtest.Fingerprint(dst.system(), w.Objects)
	if err != nil {
		t.Fatal(err)
	}
	if dstFP != srcFP {
		t.Fatalf("restored 3-node cluster diverged from 2-node source:\n--- source\n%s--- restored\n%s", srcFP, dstFP)
	}
}

// TestClusterWindowServesFreshReads: a router window changes an
// object's aggregate through the apply broadcast alone — no rating of
// the object moves — and the owning member's next answer must equal
// the core.System oracle after the same window and differ from the
// answer read before.
func TestClusterWindowServesFreshReads(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	obj := ownedBy(t, tc.table, 1)
	oracle, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs := shardtest.UnevenCharge(obj)
	seed := make([]api.RatingPayload, len(rs))
	for i, r := range rs {
		seed[i] = api.RatingPayload{Rater: int(r.Rater), Object: int(r.Object), Value: r.Value, Time: r.Time}
	}
	ctx := context.Background()
	c := server.NewClient(tc.front.URL, nil)
	if _, err := c.Submit(ctx, seed); err != nil {
		t.Fatal(err)
	}
	if err := oracle.SubmitAll(rs); err != nil {
		t.Fatal(err)
	}
	read := func() api.AggregateResponse {
		t.Helper()
		agg, err := c.Aggregate(ctx, int(obj))
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	before := read()
	read() // a repeated read

	if _, err := c.Process(ctx, 0, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.ProcessWindow(0, 30); err != nil {
		t.Fatal(err)
	}
	res, err := oracle.Aggregate(obj)
	if err != nil {
		t.Fatal(err)
	}
	want := api.AggregateResponse{Object: int(res.Object), Value: res.Value, Used: res.Used, Filtered: res.Filtered, FellBack: res.FellBack}
	for i := 0; i < 2; i++ {
		if got := read(); got != want || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("read %d: served %+v, oracle %+v", i, got, want)
		}
	}
	if want == before {
		t.Fatalf("the window left the aggregate at %+v: the test proves nothing", before)
	}
}
