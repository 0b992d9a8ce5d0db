// Command perfbench is the repository's end-to-end benchmark. It
// builds nothing itself (run.sh builds cmd/ratingd and this driver
// from source); it starts ratingd as a child process with -fsync
// always and -shards 2, drives it over loopback HTTP from this one
// process, checks the answers against the core.System oracle, and
// prints one JSON result line:
//
//	perfbench -ratingd BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics of the
// daemon. With --trace 1 the same seeded workload is replayed against
// an in-process stack built from the same public constructors, with
// spans around each layer call, and the result holds the per-layer
// metrics instead. README.md defines every metric and workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	ratingd  string
	work     string
	scale    float64 // history size multiplier; the smoke tests shrink it
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced in-process replay and reports per-layer metrics")
	flag.StringVar(&o.ratingd, "ratingd", "", "path to the ratingd binary")
	flag.StringVar(&o.work, "work", "", "scratch directory for data directories and daemon logs")
	flag.Parse()
	o.trace, o.scale = trace == 1, 1
	if o.ratingd == "" || o.work == "" || o.workload == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -ratingd, -work and --workload are required")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host, _ := json.Marshal(map[string]any{"host": hostFingerprint()})
	fmt.Println(string(host))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// hostFingerprint identifies the machine a result came from; results
// from different fingerprints are never compared.
func hostFingerprint() map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	cpu := ""
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
		"cpu":        cpu,
	}
}

func run(o options) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	r, err := newRunner(w, o.seed, o.seconds, o.scale)
	if err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.work, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	tmpl, err := prepare(o.ratingd, r, filepath.Join(dir, "template"))
	if err != nil {
		return result{}, fmt.Errorf("prepare: %w", err)
	}
	if o.trace {
		return runTraced(r, tmpl, dir)
	}
	return runDaemon(o.ratingd, r, tmpl, dir)
}

// launch starts ratingd on dir and waits until it answers /healthz.
func launch(bin string, w *workload, dir, logDir string) (*daemon, *client, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, nil, err
	}
	args := []string{"-fsync", "always", "-shards", "2", "-wal", dir}
	if w.streamDetect {
		args = append(args, "-stream-detect")
	}
	dm, err := startDaemon(bin, addr, args, filepath.Join(logDir, "ratingd.log"))
	if err != nil {
		return nil, nil, err
	}
	cl := newTCPClient(dm.url)
	if err := cl.healthy(time.Now().Add(waitTimeout)); err != nil {
		cl.close()
		dm.kill()
		return nil, nil, err
	}
	return dm, cl, nil
}

// prepare builds the data directory every launch recovers from:
// the history is ingested through a daemon, which is then killed with
// SIGKILL, so set-up takes the crash-recovery path. A workload without
// history starts from an empty directory.
func prepare(bin string, r *runner, root string) (string, error) {
	dir := filepath.Join(root, "node")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if len(r.hist) == 0 {
		return dir, nil
	}
	dm, cl, err := launch(bin, r.w, dir, root)
	if err != nil {
		return "", err
	}
	defer dm.kill()
	defer cl.close()
	if err := streamAll(cl, r.hist); err != nil {
		return "", fmt.Errorf("ingest history: %w", err)
	}
	return dir, nil
}

// runDaemon measures the end-to-end metrics: set-up is timed over
// several launches on copies of the prepared directory, and the last
// launch serves the workload.
func runDaemon(bin string, r *runner, tmpl, dir string) (result, error) {
	if r.w.rounds {
		return runRounds(bin, r, tmpl, dir)
	}
	var setups []float64
	var dm *daemon
	defer func() { dm.kill() }()
	for i := 0; i < r.w.launches; i++ {
		if dm != nil {
			dm.kill()
			r.cl.close()
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("launch%d", i-1))); err != nil {
				return result{}, err
			}
		}
		root := filepath.Join(dir, fmt.Sprintf("launch%d", i))
		node := filepath.Join(root, "node")
		if err := copyTree(tmpl, node); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		var err error
		if dm, r.cl, err = launch(bin, r.w, node, root); err != nil {
			return result{}, fmt.Errorf("launch %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.cl.close()
	cpu0, err := dm.cpuSeconds()
	if err != nil {
		return result{}, err
	}
	if err := r.replay(); err != nil {
		return result{}, err
	}
	cpu1, err := dm.cpuSeconds()
	if err != nil {
		return result{}, err
	}
	rss, err := dm.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	res := r.result(r.w.verify(r))
	tput, p50, p90 := r.obs.steady()
	res.Metrics = e2eMetrics(quantile(setups, 0.5), tput, p50, p90, rss)
	report(r, res, fmt.Sprintf("set-up %v, late p99 %.3f ms, daemon CPU %.3f s%s",
		setups, 1000*quantile(r.obs.late, 0.99), cpu1-cpu0, r.obs.byKind()))
	return res, nil
}

// runRounds measures a workload in rounds until the run's time is up:
// each round launches a fresh daemon on a copy of the prepared
// directory, ingests the same roundRatings ratings and passes the
// gates. A fixed-size round keeps the daemon's memory, and with it the
// cost of each rating, independent of how fast the host happens to
// run. Set-up, throughput and peak memory are medians over the rounds;
// the latency percentiles pool every round's requests.
func runRounds(bin string, r *runner, tmpl, dir string) (result, error) {
	end := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	var setups, tputs, rss []float64
	all := &observations{}
	res := result{Correct: true}
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		root := filepath.Join(dir, fmt.Sprintf("round%d", i))
		node := filepath.Join(root, "node")
		if err := copyTree(tmpl, node); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		dm, cl, err := launch(bin, r.w, node, root)
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.cl = cl
		err = r.replay()
		var peak float64
		round := result{Correct: false}
		if err == nil {
			if peak, err = dm.peakRSSMB(); err == nil {
				round = r.result(r.w.verify(r))
			}
		}
		cl.close()
		dm.kill()
		if err == nil {
			err = os.RemoveAll(root)
		}
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", i, err)
		}
		res.Correct = res.Correct && round.Correct
		res.Attempted += round.Attempted
		res.Failed += round.Failed
		tputs = append(tputs, r.obs.units/r.obs.elapsed)
		rss = append(rss, peak)
		all.samples = append(all.samples, r.obs.samples...)
	}
	lats := all.lats()
	res.Metrics = e2eMetrics(quantile(setups, 0.5), quantile(tputs, 0.5), quantile(lats, 0.5), quantile(lats, 0.9), quantile(rss, 0.5))
	report(r, res, fmt.Sprintf("%d rounds, set-up %v, throughput %v", len(tputs), setups, tputs))
	return res, nil
}

func e2eMetrics(setup, tput, p50, p90, rss float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"throughput_per_s": {tput, "1/s"},
		"p50_ms":           {1000 * p50, "ms"},
		"p90_ms":           {1000 * p90, "ms"},
		"rss_peak_mb":      {rss, "MB"},
	}
}

// byKind is the latency of each kind of operation, for the report.
func (o *observations) byKind() string {
	var b strings.Builder
	for k, name := range opNames {
		if l := o.lats(opKind(k)); len(l) > 0 {
			fmt.Fprintf(&b, "\n  %s: n=%d p50 %.3f ms p90 %.3f ms", name, len(l), 1000*quantile(l, 0.5), 1000*quantile(l, 0.9))
		}
	}
	return b.String()
}

// result folds the run's counts and its gates into the contract's
// shape. A failed gate, a failed operation or an open-loop generator
// that fell behind its schedule makes the run incorrect.
func (r *runner) result(gate error) result {
	obs := r.obs
	res := result{Correct: true, Attempted: obs.attempted, Failed: obs.failed}
	var problems []string
	if gate != nil {
		problems = append(problems, "oracle gate: "+gate.Error())
	}
	if obs.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d operations failed, first: %v", obs.failed, obs.attempted, obs.firstErr))
	}
	if late := quantile(obs.late, 0.99); r.w.streamDetect && late > lateLimit.Seconds() {
		problems = append(problems, fmt.Sprintf("invalid: generator late p99 %.1f ms > %v", 1000*late, lateLimit))
	}
	if len(problems) > 0 {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench:", strings.Join(problems, "; "))
	}
	return res
}

// report prints the human-readable summary on stderr.
func report(r *runner, res result, extra string) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d: correct=%v attempted=%d failed=%d failed_ratio=%g %s\n",
		r.w.name, r.seed, res.Correct, res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)), extra)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
