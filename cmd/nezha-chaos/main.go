// Command nezha-chaos runs the fault-injection convergence harness
// (internal/chaos) from the command line — the same sweep CI runs, in a
// form that reproduces a CI failure locally in one command.
//
//	nezha-chaos run         -seeds 20      # seed sweep
//	nezha-chaos replay      -seed 7 -v     # one scenario, verbose event log
//	nezha-chaos sweep-crash -v             # crash-and-recover every failpoint site
//
// Exit codes: 0 when every scenario/trial converged, 1 when any failed
// (the failure report precedes the exit), 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/nezha-dag/nezha/internal/chaos"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "sweep-crash":
		err = cmdSweepCrash(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: nezha-chaos <command> [flags]

commands:
  run          sweep scenario seeds through the chaos cluster and check convergence
  replay       re-run one scenario by seed with its event log
  sweep-crash  crash-and-restart a node at every registered failpoint site and
               torn-WAL offset, checking recovery against a never-crashed twin

exit codes: 0 all converged, 1 any scenario/trial failed, 2 usage error`)
}

// scenarioFlags registers the per-scenario knobs shared by run and replay.
func scenarioFlags(fs *flag.FlagSet) *chaos.Config {
	cfg := &chaos.Config{}
	fs.IntVar(&cfg.Nodes, "nodes", 0, "cluster size (0 = default 4)")
	fs.IntVar(&cfg.Chains, "chains", 0, "parallel chains (0 = default 3)")
	fs.IntVar(&cfg.Rounds, "rounds", 0, "fault-active rounds (0 = default 36)")
	fs.IntVar(&cfg.Accounts, "accounts", 0, "workload accounts (0 = default 300)")
	fs.StringVar(&cfg.Dir, "dir", "", "scratch dir for node stores (default: temp, removed)")
	fs.StringVar(&cfg.JournalDir, "journal-dir", "", "dump per-node flight-recorder journals here (default: only on failure, to a kept temp dir)")
	return cfg
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cfg := scenarioFlags(fs)
	seeds := fs.Int("seeds", 20, "scenarios to run")
	startSeed := fs.Int64("start-seed", 1, "first scenario seed")
	maxFailures := fs.Int("max-failures", 3, "stop the sweep after this many failures")
	verbose := fs.Bool("v", false, "one line per scenario")
	fs.Parse(args)

	sc := chaos.SweepConfig{
		StartSeed:   *startSeed,
		Seeds:       *seeds,
		Scenario:    *cfg,
		MaxFailures: *maxFailures,
	}
	if *verbose {
		sc.Verbose = os.Stdout
	}
	rep, err := chaos.Sweep(sc)
	if err != nil {
		return err
	}
	return finish(rep)
}

// finish prints a sweep's summary and every failure with the command that
// reproduces it, and errs when any run failed.
func finish(rep *chaos.Report) error {
	fmt.Println(rep.Summary())
	failures := rep.Failures()
	if len(failures) == 0 {
		return nil
	}
	for _, f := range failures {
		fmt.Println("FAIL", f.Error())
	}
	if rep.Dir != "" {
		fmt.Printf("trial stores kept for forensics: %s\n", rep.Dir)
	}
	return fmt.Errorf("nezha-chaos: %d of %d runs failed", len(failures), len(rep.Trials))
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	cfg := scenarioFlags(fs)
	seed := fs.Int64("seed", -1, "scenario seed to replay (required)")
	verbose := fs.Bool("v", true, "stream the scenario event log")
	fs.Parse(args)

	if *seed < 0 {
		return fmt.Errorf("replay: -seed is required")
	}
	cfg.Seed = *seed
	if *verbose {
		cfg.Verbose = os.Stdout
	}
	res, err := chaos.Run(*cfg)
	if err != nil {
		return err
	}
	fmt.Printf("seed=%d epochs=%d blocks=%d crash-restarts=%d partitions=%d storage-errors=%d stalls=%d mempool-faults=%d\n",
		res.Seed, res.Epochs, res.Blocks, res.CrashRestarts, res.Partitions, res.StorageErrors, res.Stalls, res.MempoolFaults)
	if res.Failure == nil {
		fmt.Println("result: ok")
		if cfg.JournalDir != "" {
			fmt.Printf("journals: %s\n", cfg.JournalDir)
		}
		return nil
	}
	// Structured failure report: the what/where line, the journal dump
	// location, and — set apart, because it is the part worth reading
	// first — the earliest cross-node divergence the flight recorders saw.
	f := res.Failure
	fmt.Printf("result: FAIL\nseed %d round %d: %s\n", f.Seed, f.Round, f.Msg)
	if f.JournalDir != "" {
		fmt.Printf("journals: %s\n", f.JournalDir)
	}
	if f.Divergence != "" {
		fmt.Printf("first divergence:\n%s\n", f.Divergence)
	} else {
		fmt.Println("deterministic journals agree across nodes (wedge or timeout, not a state split)")
	}
	return fmt.Errorf("replay: scenario failed (reproduce: nezha-chaos replay -seed %d)", f.Seed)
}

func cmdSweepCrash(args []string) error {
	fs := flag.NewFlagSet("sweep-crash", flag.ExitOnError)
	cfg := chaos.CrashSweepConfig{}
	fs.IntVar(&cfg.Rounds, "rounds", 0, "mining rounds per trial (0 = default 12; a trial runs on, up to 4x, until its crash has history on both sides)")
	fs.IntVar(&cfg.Chains, "chains", 0, "parallel chains per trial (0 = default 2)")
	fs.IntVar(&cfg.TornOffsets, "torn", 0, "torn-WAL truncation offsets to sweep (0 = default 4)")
	fs.Int64Var(&cfg.Seed, "seed", 0, "workload seed (0 = default 11)")
	fs.StringVar(&cfg.Dir, "dir", "", "scratch dir for trial stores (default: temp, kept on failure)")
	verbose := fs.Bool("v", false, "one line per trial")
	fs.Parse(args)

	if *verbose {
		cfg.Verbose = os.Stdout
	}
	rep, err := chaos.CrashSweep(cfg)
	if err != nil {
		return err
	}
	return finish(rep)
}
