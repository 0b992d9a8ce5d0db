// Command experiments regenerates the paper's tables and figures.
//
//	experiments -list
//	experiments -run fig4
//	experiments -run all -mode full -csv out/
//	experiments -run all -mode quick -workers 4
//
// Each experiment prints a text report (paper claim, measured headline
// numbers, series/tables); -csv additionally writes every series and
// table as CSV for plotting. Monte-Carlo experiments fan out over
// -workers goroutines (0 = GOMAXPROCS); results are bit-identical for
// every worker count, so the flag only changes wall-clock time. The
// per-experiment wall times and the effective worker count are printed
// to stderr so stdout stays deterministic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out, summary io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		runID   = fs.String("run", "all", "experiment ID to run, or \"all\"")
		seed    = fs.Int64("seed", 1, "top-level random seed")
		mode    = fs.String("mode", "full", "fidelity: full or quick")
		csvDir  = fs.String("csv", "", "directory to write CSV artifacts into (optional)")
		workers = fs.Int("workers", 0, "Monte-Carlo worker goroutines (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	}

	var m experiments.Mode
	switch *mode {
	case "full":
		m = experiments.Full
	case "quick":
		m = experiments.Quick
	default:
		return fmt.Errorf("unknown mode %q (want full or quick)", *mode)
	}

	opt := experiments.Options{Workers: *workers}
	fmt.Fprintf(summary, "workers: %d\n", parallel.Workers(*workers))

	ids := []string{*runID}
	if *runID == "all" {
		ids = experiments.IDs()
	}
	total := time.Duration(0)
	for _, id := range ids {
		began := time.Now()
		res, err := experiments.RunWith(id, *seed, m, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		elapsed := time.Since(began)
		total += elapsed
		fmt.Fprintf(summary, "%-20s %12s\n", id, elapsed.Round(time.Microsecond))
		if err := experiments.RenderText(out, res); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if *csvDir != "" {
			if err := experiments.WriteCSV(*csvDir, res); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(summary, "%-20s %12s\n", "total", total.Round(time.Microsecond))
	return nil
}
