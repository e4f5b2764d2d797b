package check

// The executor differential: the same multi-epoch adversarial workload
// executed twice — once reading through the MVCC version cache
// (statedb.View, the pipeline's default), once through per-epoch copied
// snapshots (the retained legacy path) — must observe identical read
// values, produce identical schedules, and commit to byte-identical
// per-epoch roots. Unlike the single-epoch scheduler differential
// (driver.go), state here EVOLVES: epoch e's writes are epoch e+1's read
// values, so a stale version, a phantom from an unreleased reservation, or
// an over-eager GC fold shows up as a root divergence within a few epochs.

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
)

// FailExecDiff: the MVCC executor and the snapshot-copy executor diverged
// (read values, schedules, or per-epoch state roots).
const FailExecDiff FailureKind = "exec-divergence"

// ExecDiffConfig configures one executor-differential run.
type ExecDiffConfig struct {
	// Gen is the epoch template; epoch e regenerates with Seed+e, so the
	// footprints differ per epoch but replay from one seed.
	Gen GenConfig
	// Epochs is the number of committed generations. Defaults to 4.
	Epochs int
	// Workers is the commit fan-out. Defaults to 4.
	Workers int
}

func (c ExecDiffConfig) withDefaults() ExecDiffConfig {
	c.Gen = c.Gen.withDefaults()
	if c.Epochs == 0 {
		c.Epochs = 4
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	return c
}

// executor is one side of the differential: a state database plus the
// read path under test.
type executor struct {
	db   *statedb.StateDB
	read func() statedb.Reader
}

// newExecutors builds the MVCC-backed and snapshot-backed executors over
// identical genesis state.
func newExecutors(cfg ExecDiffConfig) (mvccEx, snapEx *executor, err error) {
	genesis, _ := Generate(cfg.Gen)
	keys := make([]types.Key, 0, len(genesis))
	for k := range genesis { //nezha:nondeterminism-ok keys are sorted immediately below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	seed := make([]types.WriteEntry, len(keys))
	for i, k := range keys {
		seed[i] = types.WriteEntry{Key: k, Value: genesis[k]}
	}
	mk := func(view bool) (*executor, error) {
		db := statedb.Open(kvstore.NewMemory(), mpt.EmptyRoot)
		if _, err := db.Commit(seed); err != nil {
			return nil, err
		}
		ex := &executor{db: db}
		if view {
			ex.read = func() statedb.Reader { return db.View() }
		} else {
			ex.read = func() statedb.Reader { return db.Snapshot() }
		}
		return ex, nil
	}
	if mvccEx, err = mk(true); err != nil {
		return nil, nil, err
	}
	if snapEx, err = mk(false); err != nil {
		return nil, nil, err
	}
	return mvccEx, snapEx, nil
}

// execEpoch re-executes the epoch's generated footprints against the
// executor's live read path: reads observe the current state, and every
// write value is derived from the transaction's read values, so a wrong
// read propagates into a wrong root instead of cancelling out.
func (ex *executor) execEpoch(templates []*types.SimResult, epoch int) ([]*types.SimResult, error) {
	r := ex.read()
	sims := make([]*types.SimResult, len(templates))
	for i, tpl := range templates {
		sim := &types.SimResult{Tx: tpl.Tx}
		var readBuf []byte
		for _, re := range tpl.Reads {
			v, err := r.Get(re.Key)
			if err != nil {
				return nil, fmt.Errorf("epoch %d tx %d read: %w", epoch, tpl.Tx.ID, err)
			}
			sim.Reads = append(sim.Reads, types.ReadEntry{Key: re.Key, Value: v})
			readBuf = append(readBuf, v...)
		}
		for _, we := range tpl.Writes {
			h := types.HashBytes(append(append(append([]byte{byte(epoch)}, we.Key[:]...), we.Value...), readBuf...))
			sim.Writes = append(sim.Writes, types.WriteEntry{Key: we.Key, Value: h[:8]})
		}
		sims[i] = sim
	}
	return sims, nil
}

// scheduleEpoch schedules one executed epoch twice, requiring identical
// output, and verifies it against the serial-replay oracle.
func scheduleEpoch(sims []*types.SimResult, epoch int) (*types.Schedule, *Failure) {
	ref, _, fail := scheduleTwice(core.DefaultConfig(), sims, nil)
	if fail != nil {
		fail.Detail = fmt.Sprintf("epoch %d: %s", epoch, fail.Detail)
		return nil, fail
	}
	// The epoch's pre-state, reconstructed from the recorded reads, is
	// exactly what serial replay must reproduce.
	pre := make(map[types.Key][]byte)
	for _, sim := range sims {
		for _, re := range sim.Reads {
			pre[re.Key] = re.Value
		}
	}
	if err := core.VerifySchedule(pre, sims, ref); err != nil {
		return nil, &Failure{Kind: FailOracle, Detail: fmt.Sprintf("epoch %d: %v", epoch, err)}
	}
	return ref, nil
}

// RunExecDiff drives both executors through cfg.Epochs generations of one
// workload shape and reports the first divergence (nil when clean).
func RunExecDiff(cfg ExecDiffConfig) *Failure {
	cfg = cfg.withDefaults()
	mvccEx, snapEx, err := newExecutors(cfg)
	if err != nil {
		return &Failure{Kind: FailExecDiff, Gen: cfg.Gen, Detail: fmt.Sprintf("genesis: %v", err)}
	}
	for e := 0; e < cfg.Epochs; e++ {
		gen := cfg.Gen
		gen.Seed += int64(e)
		_, templates := Generate(gen)

		mvccSims, err := mvccEx.execEpoch(templates, e)
		if err != nil {
			return &Failure{Kind: FailExecDiff, Gen: cfg.Gen, Detail: "mvcc: " + err.Error()}
		}
		snapSims, err := snapEx.execEpoch(templates, e)
		if err != nil {
			return &Failure{Kind: FailExecDiff, Gen: cfg.Gen, Detail: "snapshot: " + err.Error()}
		}
		if f := diffSims(mvccSims, snapSims, e); f != nil {
			f.Gen = cfg.Gen
			return f
		}

		sched, fail := scheduleEpoch(mvccSims, e)
		if fail != nil {
			fail.Gen = cfg.Gen
			return fail
		}
		snapSched, fail := scheduleEpoch(snapSims, e)
		if fail != nil {
			fail.Gen = cfg.Gen
			return fail
		}
		if !sched.Equal(snapSched) {
			return &Failure{Kind: FailExecDiff, Gen: cfg.Gen,
				Detail: fmt.Sprintf("epoch %d commit groups: %s", e, diffSchedules(sched, snapSched))}
		}

		mvccRoot, err := node.CommitSchedule(mvccEx.db, mvccSims, sched, cfg.Workers) //nezha:dettaint-ok the write batch orders the simulations' writes by sched's sequence numbers; sched is tainted only by the wall-clock PhaseBreakdown core.Schedule returns beside it, which scheduleEpoch drops
		if err != nil {
			return &Failure{Kind: FailExecDiff, Gen: cfg.Gen, Detail: fmt.Sprintf("epoch %d mvcc commit: %v", e, err)}
		}
		snapRoot, err := node.CommitSchedule(snapEx.db, snapSims, sched, cfg.Workers) //nezha:dettaint-ok the write batch orders the simulations' writes by sched's sequence numbers; sched is tainted only by the wall-clock PhaseBreakdown core.Schedule returns beside it, which scheduleEpoch drops
		if err != nil {
			return &Failure{Kind: FailExecDiff, Gen: cfg.Gen, Detail: fmt.Sprintf("epoch %d snapshot commit: %v", e, err)}
		}
		if mvccRoot != snapRoot {
			return &Failure{Kind: FailExecDiff, Gen: cfg.Gen,
				Detail: fmt.Sprintf("epoch %d root: mvcc %x != snapshot %x", e, mvccRoot[:8], snapRoot[:8])}
		}
		// Fold old generations away mid-run so the sweep also exercises
		// the GC path (a fold that corrupts a base surfaces next epoch).
		mvccEx.db.AdvanceWatermark()
	}
	return nil
}

// diffSims compares the two executors' read observations entry for entry.
func diffSims(a, b []*types.SimResult, epoch int) *Failure {
	for i := range a {
		if len(a[i].Reads) != len(b[i].Reads) {
			return &Failure{Kind: FailExecDiff,
				Detail: fmt.Sprintf("epoch %d tx %d: %d vs %d reads", epoch, a[i].Tx.ID, len(a[i].Reads), len(b[i].Reads))}
		}
		for j := range a[i].Reads {
			if a[i].Reads[j].Key != b[i].Reads[j].Key || !bytes.Equal(a[i].Reads[j].Value, b[i].Reads[j].Value) {
				return &Failure{Kind: FailExecDiff,
					Detail: fmt.Sprintf("epoch %d tx %d key %x: mvcc read %x, snapshot read %x",
						epoch, a[i].Tx.ID, a[i].Reads[j].Key[:8], a[i].Reads[j].Value, b[i].Reads[j].Value)}
			}
		}
	}
	return nil
}

// ExecDiffRunConfig configures an executor-differential sweep across the
// standard profiles.
type ExecDiffRunConfig struct {
	// StartSeed is the first seed; trial i uses StartSeed+i per profile.
	StartSeed int64
	// Seeds is the number of seeds per profile. Defaults to 5.
	Seeds int
	// Epochs per trial. Defaults to 4.
	Epochs int
	// Txs and Keys override the per-trial epoch dimensions.
	Txs, Keys int
	// MaxFailures stops the sweep early; 0 means 5.
	MaxFailures int
	// Verbose, when non-nil, receives one progress line per trial.
	Verbose io.Writer
}

// ExecDiffReport is the outcome of an executor-differential sweep.
type ExecDiffReport struct {
	Trials   int
	Failures []*Failure
}

// Failed reports whether any trial diverged.
func (r *ExecDiffReport) Failed() bool { return len(r.Failures) > 0 }

// Summary renders the sweep outcome, stable across runs.
func (r *ExecDiffReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "execdiff trials: %d, failures: %d\n", r.Trials, len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f.Error())
	}
	return b.String()
}

// RunExecDiffSweep runs the executor differential over every standard
// profile at every seed.
func RunExecDiffSweep(cfg ExecDiffRunConfig) *ExecDiffReport {
	if cfg.Seeds == 0 {
		cfg.Seeds = 5
	}
	if cfg.MaxFailures == 0 {
		cfg.MaxFailures = 5
	}
	rep := &ExecDiffReport{}
	for _, p := range Profiles() {
		for i := 0; i < cfg.Seeds; i++ {
			gen := p.Gen
			gen.Seed = cfg.StartSeed + int64(i)
			if cfg.Txs != 0 {
				gen.Txs = cfg.Txs
			}
			if cfg.Keys != 0 {
				gen.Keys = cfg.Keys
			}
			fail := RunExecDiff(ExecDiffConfig{Gen: gen, Epochs: cfg.Epochs})
			rep.Trials++
			if cfg.Verbose != nil {
				status := "ok"
				if fail != nil {
					status = "FAIL " + string(fail.Kind)
				}
				fmt.Fprintf(cfg.Verbose, "%-20s seed=%-4d epochs=%-2d %s\n", p.Name, gen.Seed, cfg.Epochs, status)
			}
			if fail != nil {
				fail.Profile = p.Name
				rep.Failures = append(rep.Failures, fail)
				if len(rep.Failures) >= cfg.MaxFailures {
					return rep
				}
			}
		}
	}
	return rep
}
