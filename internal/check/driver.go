package check

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/nezha-dag/nezha/internal/cg"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/types"
)

// FailureKind classifies what a differential trial caught.
type FailureKind string

// The divergences the driver checks for, roughly in detection order.
const (
	// FailSchedulerError: a scheduler returned an unexpected error.
	FailSchedulerError FailureKind = "scheduler-error"
	// FailNondeterminism: the Nezha scheduler produced two different
	// schedules for the same epoch — every node must derive the same one.
	FailNondeterminism FailureKind = "nondeterminism"
	// FailOracle: the Nezha schedule failed the serial-replay oracle.
	FailOracle FailureKind = "oracle-violation"
	// FailCGOracle: the CG baseline's schedule failed the oracle.
	FailCGOracle FailureKind = "cg-oracle-violation"
	// FailFeasibility: Nezha aborted a transaction that a trivial argument
	// proves committable (conflict-free or stateless) — fewer commits than
	// the known-feasible bound.
	FailFeasibility FailureKind = "feasibility-bound"
)

// Failure is one divergence, carrying everything needed to reproduce it:
// the generator config (seed included) regenerates the epoch bit-for-bit,
// and Minimized names a 1-minimal failing subset of its transaction ids.
type Failure struct {
	Kind   FailureKind
	Detail string
	Gen    GenConfig
	// Profile is the sweep profile name when the failure came from a
	// check.Run sweep ("" for direct RunTrial calls); `nezha-check replay
	// -profile` accepts it verbatim.
	Profile string
	// Minimized holds the original transaction ids of a minimal failing
	// subset (empty when minimization was skipped).
	Minimized []types.TxID
}

// Error implements error.
func (f *Failure) Error() string {
	min := ""
	if len(f.Minimized) > 0 {
		min = fmt.Sprintf(" minimized=%v", f.Minimized)
	}
	return fmt.Sprintf("check: %s on shape=%s seed=%d txs=%d keys=%d: %s%s",
		f.Kind, f.Gen.Shape, f.Gen.Seed, f.Gen.Txs, f.Gen.Keys, f.Detail, min)
}

// TrialConfig configures one differential trial.
type TrialConfig struct {
	// Gen parameterizes the epoch under test.
	Gen GenConfig
	// Core overrides the scheduler config; nil means core.DefaultConfig().
	Core *core.Config
	// CG overrides the baseline config; nil means cg.DefaultConfig().
	CG *cg.Config
	// SkipCG drops the baseline run (the minimizer uses this: CG's cycle
	// enumeration is too slow to probe thousands of candidate subsets).
	SkipCG bool
	// SkipMinimize reports failures without shrinking them.
	SkipMinimize bool
	// Mutate, when set, post-processes every Nezha schedule before
	// checking — the fault-injection port the meta-tests use to prove the
	// oracle catches a deliberately broken scheduler. Never set outside
	// tests.
	Mutate func(sched *types.Schedule, sims []*types.SimResult)
}

func (c TrialConfig) withDefaults() TrialConfig {
	c.Gen = c.Gen.withDefaults()
	if c.Core == nil {
		cc := core.DefaultConfig()
		c.Core = &cc
	}
	if c.CG == nil {
		cc := cg.DefaultConfig()
		c.CG = &cc
	}
	return c
}

// TrialResult summarizes one trial.
type TrialResult struct {
	Gen         GenConfig
	Txs         int
	Committed   int
	Aborted     int
	Rescued     int
	CGCommitted int
	// CGSkipped is set when the baseline hit its cycle-explosion budget —
	// the paper's documented CG failure mode, not a harness failure.
	CGSkipped bool
	// Failure is non-nil when the trial diverged.
	Failure *Failure
}

// RunTrial generates one epoch from cfg.Gen and runs the full differential
// battery over it. On divergence the failing epoch is ddmin-minimized (via
// repeated regeneration-free re-checks on transaction subsets) and the
// failure reports the minimal subset's original transaction ids.
func RunTrial(cfg TrialConfig) *TrialResult {
	cfg = cfg.withDefaults()
	snapshot, sims := Generate(cfg.Gen)
	res := &TrialResult{Gen: cfg.Gen, Txs: len(sims)}

	fail := diffCheck(cfg, snapshot, sims, res)
	if fail == nil {
		return res
	}
	fail.Gen = cfg.Gen
	if !cfg.SkipMinimize {
		subCfg := cfg
		subCfg.SkipCG = fail.Kind != FailCGOracle // keep CG only when CG is the bug
		idx := Minimize(len(sims), func(keep []int) bool {
			return diffCheck(subCfg, snapshot, renumber(sims, keep), nil) != nil
		})
		for _, i := range idx {
			fail.Minimized = append(fail.Minimized, sims[i].Tx.ID)
		}
	}
	res.Failure = fail
	return res
}

// renumber clones the selected simulation results with fresh dense
// epoch-local ids (the schedulers index transactions densely), leaving the
// originals untouched so minimization probes never corrupt the epoch.
func renumber(sims []*types.SimResult, keep []int) []*types.SimResult {
	out := make([]*types.SimResult, len(keep))
	for j, i := range keep {
		tx := *sims[i].Tx
		tx.ID = types.TxID(j)
		cp := *sims[i]
		cp.Tx = &tx
		out[j] = &cp
	}
	return out
}

// diffCheck runs the differential battery on one epoch and returns the
// first divergence found (nil if clean). res, when non-nil, receives the
// trial statistics.
func diffCheck(cfg TrialConfig, snapshot map[types.Key][]byte, sims []*types.SimResult, res *TrialResult) *Failure {
	// (a) Nezha, twice: the same epoch must get the same schedule.
	ref, pb, fail := scheduleTwice(*cfg.Core, sims, cfg.Mutate)
	if fail != nil {
		return fail
	}
	if res != nil {
		res.Rescued = pb.Rescued
		res.Committed = ref.CommittedCount()
		res.Aborted = ref.AbortedCount()
	}

	// (b) The independent oracle: serial-replay equivalence.
	if err := core.VerifySchedule(snapshot, sims, ref); err != nil {
		return &Failure{Kind: FailOracle, Detail: err.Error()}
	}

	// (c) Known-feasible bound: a transaction none of whose keys is
	// touched by any other transaction conflicts with nothing, and a
	// stateless transaction conflicts with nothing; aborting either is a
	// scheduler bug, whatever the abort reason says.
	touch := make(map[types.Key]int)
	for _, sim := range sims {
		for _, k := range simKeys(sim) {
			touch[k]++
		}
	}
	for _, sim := range sims {
		keys := simKeys(sim)
		free := true
		for _, k := range keys {
			if touch[k] > 1 {
				free = false
				break
			}
		}
		if free && !ref.IsCommitted(sim.Tx.ID) {
			kind := "conflict-free"
			if len(keys) == 0 {
				kind = "stateless"
			}
			return &Failure{Kind: FailFeasibility,
				Detail: fmt.Sprintf("%s tx %d aborted", kind, sim.Tx.ID)}
		}
	}

	// (d) CG baseline under the same oracle. A cycle-explosion timeout is
	// the baseline's documented failure mode, not a divergence.
	if !cfg.SkipCG {
		out, _, err := cg.NewScheduler(*cfg.CG).Schedule(sims)
		switch {
		case errors.Is(err, cg.ErrCycleExplosion):
			if res != nil {
				res.CGSkipped = true
			}
		case err != nil:
			return &Failure{Kind: FailSchedulerError, Detail: fmt.Sprintf("cg: %v", err)}
		default:
			if err := core.VerifySchedule(snapshot, sims, out); err != nil {
				return &Failure{Kind: FailCGOracle, Detail: err.Error()}
			}
			if res != nil {
				res.CGCommitted = out.CommittedCount()
			}
		}
	}
	return nil
}

// scheduleTwice schedules the epoch with two fresh schedulers and fails
// unless both give the same schedule: the dynamic guard behind nezha-vet's
// detmap and detsource, which a map iteration order or a wall-clock read
// reaching the output trips. mutate, when set, post-processes each schedule
// (see TrialConfig.Mutate).
func scheduleTwice(cfg core.Config, sims []*types.SimResult, mutate func(*types.Schedule, []*types.SimResult)) (*types.Schedule, types.PhaseBreakdown, *Failure) {
	var outs [2]*types.Schedule
	var pb types.PhaseBreakdown
	for i := range outs {
		sch, err := core.NewScheduler(cfg)
		if err != nil {
			return nil, pb, &Failure{Kind: FailSchedulerError, Detail: fmt.Sprintf("nezha config: %v", err)}
		}
		if outs[i], pb, err = sch.Schedule(sims); err != nil {
			return nil, pb, &Failure{Kind: FailSchedulerError, Detail: fmt.Sprintf("nezha: %v", err)}
		}
		if mutate != nil {
			mutate(outs[i], sims)
		}
	}
	if !outs[0].Equal(outs[1]) {
		return nil, pb, &Failure{Kind: FailNondeterminism, Detail: "scheduled twice: " + diffSchedules(outs[0], outs[1])}
	}
	return outs[0], pb, nil
}

// simKeys returns the distinct keys a simulation touches: the read∪write
// union, deduplicated (a key both read and written by one transaction must
// count as a single toucher in the feasibility bound).
func simKeys(sim *types.SimResult) []types.Key {
	keys := make([]types.Key, 0, len(sim.Reads)+len(sim.Writes))
	for _, r := range sim.Reads {
		keys = append(keys, r.Key)
	}
	for _, w := range sim.Writes {
		dup := false
		for _, k := range keys {
			if k == w.Key {
				dup = true
				break
			}
		}
		if !dup {
			keys = append(keys, w.Key)
		}
	}
	return keys
}

// diffSchedules renders a compact description of how two schedules differ,
// for failure reports.
func diffSchedules(a, b *types.Schedule) string {
	var parts []string
	if a.CommittedCount() != b.CommittedCount() {
		parts = append(parts, fmt.Sprintf("committed %d vs %d", a.CommittedCount(), b.CommittedCount()))
	}
	if a.AbortedCount() != b.AbortedCount() {
		parts = append(parts, fmt.Sprintf("aborted %d vs %d", a.AbortedCount(), b.AbortedCount()))
	}
	n := 0
	// Sorted ids so the first five diffs reported are the same on every
	// run — failure messages must replay bit-exactly (found by nezha-vet).
	ids := make([]types.TxID, 0, len(a.Seqs))
	for id := range a.Seqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		seq := a.Seqs[id]
		if o, ok := b.Seqs[id]; !ok || o != seq {
			if n < 5 {
				parts = append(parts, fmt.Sprintf("tx %d: seq %d vs %d", id, seq, b.Seqs[id]))
			}
			n++
		}
	}
	if n > 5 {
		parts = append(parts, fmt.Sprintf("(%d more seq diffs)", n-5))
	}
	if len(parts) == 0 {
		return "abort sets differ"
	}
	return strings.Join(parts, "; ")
}
