// Command nezha-bench regenerates the tables and figures of the paper's
// evaluation (§VI) plus the DESIGN.md ablations.
//
// Usage:
//
//	nezha-bench -exp all                # every experiment, paper parameters
//	nezha-bench -exp fig9 -quick        # one experiment, shrunk for a fast pass
//	nezha-bench -exp fig11 -csv         # CSV instead of a text table
//	nezha-bench -exp stages             # staged-pipeline profile
//	nezha-bench -list                   # list experiment names
//
// -workers sizes the execution and commit pools; the scheduler itself runs
// on one goroutine per epoch.
//
// Absolute numbers depend on the machine; EXPERIMENTS.md records the shape
// comparisons against the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/nezha-dag/nezha/internal/bench"
	"github.com/nezha-dag/nezha/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "nezha-bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp       = flag.String("exp", "all", "experiment name or 'all'")
		quick     = flag.Bool("quick", false, "shrink workloads for a fast smoke pass")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		list      = flag.Bool("list", false, "list experiments and exit")
		seed      = flag.Int64("seed", 1, "workload seed")
		reps      = flag.Int("reps", 0, "epochs per data point (0 = default)")
		blockSize = flag.Int("blocksize", 0, "transactions per block (0 = default)")
		workers   = flag.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
		addr      = flag.String("metrics-addr", "", "serve /metrics, /healthz, and pprof during the run (empty = off)")
	)
	flag.Parse()

	if *addr != "" {
		srv, err := metrics.StartServer(*addr, metrics.Default())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", srv.Addr())
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-18s %s\n", e.Name, e.Desc)
		}
		return nil
	}

	opts := bench.DefaultOptions()
	if *quick {
		opts = opts.Quick()
	}
	opts.Seed = *seed
	opts.Workers = *workers
	if *reps > 0 {
		opts.Reps = *reps
	}
	if *blockSize > 0 {
		opts.BlockSize = *blockSize
	}

	var experiments []bench.Experiment
	if *exp == "all" {
		experiments = bench.Experiments()
	} else {
		e, err := bench.Lookup(*exp)
		if err != nil {
			return err
		}
		experiments = []bench.Experiment{e}
	}

	for _, e := range experiments {
		start := time.Now()
		tbl, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if *csv {
			if err := tbl.WriteCSV(os.Stdout); err != nil {
				return err
			}
			continue
		}
		if err := tbl.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("(%s finished in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
