package chaos

import (
	"fmt"
	"io"
)

// SweepConfig parameterizes a multi-seed chaos sweep (the CI entry point).
type SweepConfig struct {
	// StartSeed is the first scenario seed; seeds increment from here.
	StartSeed int64
	// Seeds is how many scenarios to run. 0 means 20.
	Seeds int
	// Scenario is the per-seed configuration; its Seed field is overwritten
	// by the sweep.
	Scenario Config
	// MaxFailures stops the sweep early once this many scenarios failed.
	// 0 means 3.
	MaxFailures int
	// Verbose, when set, receives one line per scenario (and the scenario
	// event logs if Scenario.Verbose is also set).
	Verbose io.Writer
}

// Report aggregates a sweep of runs: scenario seeds (Sweep) or crash
// trials (CrashSweep).
type Report struct {
	Trials []*Result
	// Exempt maps the registered failpoint sites a crash sweep does not
	// crash at to the reason; empty for Sweep.
	Exempt map[string]string
	// Dir is where a crash sweep's per-trial stores live; retained on
	// failure for forensics.
	Dir string

	label string
}

// Failures lists the failed runs' verdicts.
func (r *Report) Failures() []*Failure {
	var fs []*Failure
	for _, t := range r.Trials {
		if t.Failure != nil {
			fs = append(fs, t.Failure)
		}
	}
	return fs
}

// Failed reports whether any run failed.
func (r *Report) Failed() bool { return len(r.Failures()) > 0 }

// Summary renders the sweep outcome as one line.
func (r *Report) Summary() string {
	var sum Result
	for _, t := range r.Trials {
		sum.Epochs += t.Epochs
		sum.Blocks += t.Blocks
		sum.CrashRestarts += t.CrashRestarts
		sum.Partitions += t.Partitions
		sum.StorageErrors += t.StorageErrors
		sum.Stalls += t.Stalls
		sum.MempoolFaults += t.MempoolFaults
	}
	s := fmt.Sprintf("%s: %d runs, %d failures | %s", r.label, len(r.Trials), len(r.Failures()), sum.counts())
	if len(r.Exempt) > 0 {
		s += fmt.Sprintf(" | %d sites exempt", len(r.Exempt))
	}
	return s
}

func (r *Result) counts() string {
	return fmt.Sprintf("%d epochs, %d blocks | %d crash-restarts, %d partitions, %d storage errors, %d stalls, %d mempool faults",
		r.Epochs, r.Blocks, r.CrashRestarts, r.Partitions, r.StorageErrors, r.Stalls, r.MempoolFaults)
}

// add records one run, and prints its line to w when w is set.
func (r *Report) add(res *Result, w io.Writer) {
	r.Trials = append(r.Trials, res)
	if w == nil {
		return
	}
	status := "ok"
	if res.Failure != nil {
		status = "FAIL\n  " + res.Failure.Error()
	}
	fmt.Fprintf(w, "%-28s %s: %s\n", res.Name, res.counts(), status)
}

// Sweep runs Seeds scenarios sequentially (failpoints are process-global)
// and aggregates their results. The error reports harness setup problems
// only; cluster misbehavior lands in the report's failures with
// replayable seeds.
func Sweep(cfg SweepConfig) (*Report, error) {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 20
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = 3
	}
	rep := &Report{label: "chaos"}
	for i := 0; i < cfg.Seeds && len(rep.Failures()) < cfg.MaxFailures; i++ {
		sc := cfg.Scenario
		sc.Seed = cfg.StartSeed + int64(i)
		res, err := Run(sc)
		if err != nil {
			return rep, fmt.Errorf("chaos: seed %d: %w", sc.Seed, err)
		}
		rep.add(res, cfg.Verbose)
	}
	return rep, nil
}
