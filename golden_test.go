package repro

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/randx"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

const (
	goldenPath        = "testdata/golden_pipeline.txt"
	goldenShardedPath = "testdata/golden_pipeline_sharded.txt"
)

// goldenSystem is the slice of the system surface the golden trace
// exercises; shard.Engine and core.System (through shardtest.Oracle)
// both satisfy it, which is what lets one renderer pin both engines
// to the same bytes.
type goldenSystem interface {
	SubmitAll(rs []Rating) error
	ProcessWindow(start, end float64) (ProcessReport, error)
	MaliciousRaters() ([]RaterID, error)
}

// renderGoldenTrace runs the full detector pipeline on the paper's
// fixed-seed attacked stream and renders every numerically meaningful
// output as text: the normalized model-error trace per window, the
// suspicious window set, per-rater suspicion statistics, and the
// malicious set produced by the end-to-end trust system. Floats are
// printed with %.17g so the file round-trips bit-exactly; any change
// to the filter, AR fit, suspicion charging, or trust update shows up
// as a diff against the checked-in golden file.
func renderGoldenTrace(t *testing.T, mkSys func(Config) (goldenSystem, error)) string {
	t.Helper()
	rng := randx.New(42)
	labeled, err := sim.GenerateIllustrative(rng, sim.DefaultIllustrative())
	if err != nil {
		t.Fatal(err)
	}
	rs := sim.Ratings(labeled)

	cfg := DetectorConfig{Mode: WindowByCount, Size: 50, Step: 25, Threshold: 0.105}
	rep, err := Detect(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# golden pipeline trace: seed=42 illustrative attack, count windows 50/25, threshold=0.105\n")
	fmt.Fprintf(&b, "ratings %d\n", len(rs))

	fmt.Fprintf(&b, "windows %d\n", len(rep.Windows))
	for i, w := range rep.Windows {
		if !w.Fitted {
			fmt.Fprintf(&b, "window %d unfitted [%.17g,%.17g)\n", i, w.Window.Start, w.Window.End)
			continue
		}
		fmt.Fprintf(&b, "window %d err %.17g suspicious %v level %.17g\n",
			i, w.Model.NormalizedError, w.Suspicious, w.Level)
	}
	fmt.Fprintf(&b, "suspicious_windows %v\n", rep.SuspiciousWindows())

	ids := make([]int64, 0, len(rep.PerRater))
	for id := range rep.PerRater {
		ids = append(ids, int64(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := rep.PerRater[RaterID(id)]
		if st.SuspiciousRatings == 0 {
			continue // keep the file focused on charged raters
		}
		fmt.Fprintf(&b, "rater %d suspicion %.17g suspicious %d total %d\n",
			id, st.Suspicion, st.SuspiciousRatings, st.TotalRatings)
	}

	// End-to-end: the same stream through the full trust system.
	sys, err := mkSys(Config{Detector: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitAll(rs); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessWindow(0, 61); err != nil {
		t.Fatal(err)
	}
	mal, err := sys.MaliciousRaters()
	if err != nil {
		t.Fatal(err)
	}
	malIDs := make([]int64, len(mal))
	for i, id := range mal {
		malIDs[i] = int64(id)
	}
	sort.Slice(malIDs, func(i, j int) bool { return malIDs[i] < malIDs[j] })
	fmt.Fprintf(&b, "system_malicious %v\n", malIDs)
	return b.String()
}

// checkGolden compares got against the file at path, rewriting the
// file instead when -update is set.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	// Report the first few diverging lines, not a wall of text.
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	diffs := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got  %q\n  want %q", i+1, g, w)
			if diffs++; diffs >= 5 {
				t.Fatalf("... further diffs suppressed (%d vs %d lines total)", len(gl), len(wl))
			}
		}
	}
}

func singleSystem(cfg Config) (goldenSystem, error) {
	sys, err := NewSystem(cfg)
	return shardtest.Oracle{System: sys}, err
}

func shardedSystem(cfg Config) (goldenSystem, error) { return shard.NewEngine(cfg, 4) }

// TestGoldenPipeline locks the detector + trust pipeline to an exact
// numerical trace. Regenerate deliberately with:
//
//	go test -run TestGoldenPipeline -update .
func TestGoldenPipeline(t *testing.T) {
	checkGolden(t, goldenPath, renderGoldenTrace(t, singleSystem))
}

// TestGoldenPipelineSharded runs the identical trace through a 4-shard
// engine. Its golden file must match the single-system one
// byte-for-byte: sharding is a throughput layout, never a numerical
// change.
func TestGoldenPipelineSharded(t *testing.T) {
	checkGolden(t, goldenShardedPath, renderGoldenTrace(t, shardedSystem))
	if *updateGolden {
		return
	}
	single, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := os.ReadFile(goldenShardedPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(single) != string(sharded) {
		t.Fatalf("%s and %s differ: the sharded engine changed the pipeline's numbers", goldenPath, goldenShardedPath)
	}
}

// TestGoldenTraceIsDeterministic guards the golden test itself: two
// fresh runs in the same process must render identical bytes, or the
// golden comparison would flake.
func TestGoldenTraceIsDeterministic(t *testing.T) {
	if renderGoldenTrace(t, singleSystem) != renderGoldenTrace(t, singleSystem) {
		t.Fatal("pipeline trace differs between identical runs")
	}
}
