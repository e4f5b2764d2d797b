package check

import (
	"reflect"
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/cg"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/graph"
	"github.com/nezha-dag/nezha/internal/types"
)

// fastCG keeps the baseline's cycle enumeration from dominating test time:
// trials that blow past it count as CGSkipped, which is not a failure.
func fastCG() *cg.Config {
	return &cg.Config{MaxCycles: 20_000, SampleCycles: 10_000, TimeBudget: 2 * time.Second}
}

// TestGenerateDeterministic: the replay contract — one config, one epoch.
func TestGenerateDeterministic(t *testing.T) {
	for _, p := range Profiles() {
		gen := p.Gen
		gen.Seed = 42
		gen.Txs = 120
		gen.Keys = 24
		snapA, simsA := Generate(gen)
		snapB, simsB := Generate(gen)
		if !reflect.DeepEqual(snapA, snapB) {
			t.Fatalf("%s: snapshots differ across regenerations", p.Name)
		}
		if !reflect.DeepEqual(simsA, simsB) {
			t.Fatalf("%s: sims differ across regenerations", p.Name)
		}
	}
}

// TestGenerateWellFormed: every shape produces sims obeying the SimResult
// contract (dense ids, per-set dedup, by-key order, reads matching the
// snapshot) — the preconditions the schedulers assume.
func TestGenerateWellFormed(t *testing.T) {
	for _, p := range Profiles() {
		gen := p.Gen
		gen.Seed = 7
		gen.Txs = 150
		gen.Keys = 20
		snapshot, sims := Generate(gen)
		if len(sims) != gen.Txs {
			t.Fatalf("%s: got %d sims, want %d", p.Name, len(sims), gen.Txs)
		}
		for i, sim := range sims {
			if sim.Tx.ID != types.TxID(i) {
				t.Fatalf("%s: sim %d has id %d", p.Name, i, sim.Tx.ID)
			}
			for j, r := range sim.Reads {
				if j > 0 && !sim.Reads[j-1].Key.Less(r.Key) {
					t.Fatalf("%s: tx %d reads out of order", p.Name, i)
				}
				if got := snapshot[r.Key]; !reflect.DeepEqual(got, r.Value) {
					t.Fatalf("%s: tx %d read value disagrees with snapshot", p.Name, i)
				}
			}
			for j := 1; j < len(sim.Writes); j++ {
				if !sim.Writes[j-1].Key.Less(sim.Writes[j].Key) {
					t.Fatalf("%s: tx %d writes out of order", p.Name, i)
				}
			}
		}
	}
}

// TestGenerateShapesHaveCharacter: the targeted shapes actually produce the
// structures they exist for.
func TestGenerateShapesHaveCharacter(t *testing.T) {
	_, sims := Generate(GenConfig{Seed: 3, Txs: 200, Keys: 32, Shape: ShapeMultiWrite})
	multi := 0
	for _, sim := range sims {
		if len(sim.Reads) == 0 && len(sim.Writes) >= 2 {
			multi++
		}
	}
	if multi < 100 {
		t.Fatalf("multi-write shape produced only %d rescue-eligible txs", multi)
	}

	hot, simsHot := 0, 0
	_, hotSims := Generate(GenConfig{Seed: 3, Txs: 200, Keys: 32, Shape: ShapeSingleHotKey, ReadRatio: 0.5})
	hotKey := types.KeyFromUint64(0)
	for _, sim := range hotSims {
		simsHot++
		for _, k := range simKeys(sim) {
			if k == hotKey {
				hot++
				break
			}
		}
	}
	if hot*2 < simsHot {
		t.Fatalf("single-hot-key shape: only %d/%d txs touch the hot key", hot, simsHot)
	}

	// Cycle-heavy epochs must force Algorithm 1 off its acyclic fast path;
	// detectable as a dependency graph with no valid topological order.
	_, cycSims := Generate(GenConfig{Seed: 3, Txs: 60, Keys: 12, Shape: ShapeCycleHeavy})
	acg := core.BuildACG(cycSims)
	deps := graph.NewDirected(acg.Deps.N())
	for u := 0; u < deps.N(); u++ {
		for _, v := range acg.Deps.Out(u) {
			deps.AddEdge(u, int(v))
		}
	}
	if _, ok := deps.TopoSort(); ok {
		t.Fatal("cycle-heavy shape produced an acyclic address-dependency graph")
	}
}

// TestSweepClean: the production scheduler passes the full battery. Epochs
// are sized above the 128-tx threshold so the parallel builder and sorter
// really run against the sequential reference.
func TestSweepClean(t *testing.T) {
	rep := Run(RunConfig{
		StartSeed: 1,
		Seeds:     3,
		Txs:       160,
		Keys:      32,
		CG:        fastCG(),
	})
	if rep.Failed() {
		t.Fatalf("clean sweep failed:\n%s", rep.Summary())
	}
	if rep.Trials != 3*len(Profiles()) {
		t.Fatalf("ran %d trials, want %d", rep.Trials, 3*len(Profiles()))
	}
}

// TestHarnessCatchesFlippedRescue is the teeth test the harness exists for:
// flipping the §IV-D rescue comparison inside the scheduler must make the
// differential driver report a seed-replayable oracle violation. The rescue
// only matters in the paper-literal configuration (safety sweep off — with
// the sweep on, a broken rescue is silently repaired into extra aborts), so
// both runs use SkipSafetySweep; the no-fault control run isolates the
// injected bug from the sweepless heuristic's own rare violations.
func TestHarnessCatchesFlippedRescue(t *testing.T) {
	base := core.Config{Reorder: true, Heuristic: core.RankMaxOutDegree, SkipSafetySweep: true}
	faulty := base
	faulty.InjectFault = core.FaultFlipRescue

	var fail *Failure
	for seed := int64(1); seed <= 120 && fail == nil; seed++ {
		gen := GenConfig{Seed: seed, Txs: 160, Keys: 16, Shape: ShapeMixed, ReadRatio: 0.3, MultiWriteProb: 0.3}
		control := RunTrial(TrialConfig{Gen: gen, Core: &base, SkipCG: true, SkipMinimize: true})
		if control.Failure != nil {
			continue // heuristic-only violation: can't attribute to the fault
		}
		res := RunTrial(TrialConfig{Gen: gen, Core: &faulty, SkipCG: true})
		if res.Failure != nil {
			fail = res.Failure
		}
	}
	if fail == nil {
		t.Fatal("flipped rescue comparison survived 120 seeds — the oracle has no teeth")
	}
	if fail.Kind != FailOracle && fail.Kind != FailNondeterminism {
		t.Fatalf("unexpected failure kind %s: %s", fail.Kind, fail.Error())
	}
	if len(fail.Minimized) == 0 || len(fail.Minimized) >= fail.Gen.Txs {
		t.Fatalf("minimizer did not shrink the failure: %d of %d txs", len(fail.Minimized), fail.Gen.Txs)
	}

	// Seed-replayability: rerunning the exact failing config must
	// reproduce the same failure, including the minimized subset.
	again := RunTrial(TrialConfig{Gen: fail.Gen, Core: &faulty, SkipCG: true})
	if again.Failure == nil {
		t.Fatalf("seed %d did not replay the failure", fail.Gen.Seed)
	}
	if again.Failure.Kind != fail.Kind || again.Failure.Detail != fail.Detail {
		t.Fatalf("replay diverged: %s vs %s", again.Failure.Error(), fail.Error())
	}
	if !reflect.DeepEqual(again.Failure.Minimized, fail.Minimized) {
		t.Fatalf("replay minimized differently: %v vs %v", again.Failure.Minimized, fail.Minimized)
	}
}

// TestHarnessCatchesDroppedFinish: leaking the seq-0 sentinel for stateless
// transactions must trip the oracle's structural check on any epoch that
// contains a stateless transaction.
func TestHarnessCatchesDroppedFinish(t *testing.T) {
	cc := core.DefaultConfig()
	cc.InjectFault = core.FaultDropStatelessSeq
	res := RunTrial(TrialConfig{
		Gen:  GenConfig{Seed: 5, Txs: 160, Keys: 32, Shape: ShapeMixed, StatelessProb: 0.3, ReadRatio: 0.5},
		Core: &cc,
		CG:   fastCG(),
	})
	if res.Failure == nil {
		t.Fatal("dropped finish pass went undetected")
	}
	if res.Failure.Kind != FailOracle {
		t.Fatalf("unexpected failure kind %s: %s", res.Failure.Kind, res.Failure.Error())
	}
}

// TestHarnessCatchesMutatedSchedule exercises the Mutate fault port: a
// post-hoc seq collision between two committed writers of one key — the
// shape of bug a dropped tie-break would produce — must be caught.
func TestHarnessCatchesMutatedSchedule(t *testing.T) {
	res := RunTrial(TrialConfig{
		Gen: GenConfig{Seed: 9, Txs: 160, Keys: 16, Shape: ShapeZipf, Skew: 0.9, ReadRatio: 0.4},
		CG:  fastCG(),
		Mutate: func(sched *types.Schedule, sims []*types.SimResult) {
			// Give the second committed writer of some key its first
			// committed writer's number.
			writers := make(map[types.Key]types.TxID)
			for _, sim := range sims {
				if !sched.IsCommitted(sim.Tx.ID) {
					continue
				}
				for _, w := range sim.Writes {
					if first, ok := writers[w.Key]; ok {
						sched.Seqs[sim.Tx.ID] = sched.Seqs[first]
						return
					}
					writers[w.Key] = sim.Tx.ID
				}
			}
		},
	})
	if res.Failure == nil {
		t.Fatal("mutated schedule went undetected")
	}
	if res.Failure.Kind != FailOracle {
		t.Fatalf("unexpected failure kind %s: %s", res.Failure.Kind, res.Failure.Error())
	}
}

// TestMinimize covers the harness's own minimizer against predicates with
// known minimal cores.
func TestMinimize(t *testing.T) {
	contains := func(idx []int, want ...int) bool {
		have := make(map[int]bool, len(idx))
		for _, i := range idx {
			have[i] = true
		}
		for _, w := range want {
			if !have[w] {
				return false
			}
		}
		return true
	}

	t.Run("pair core", func(t *testing.T) {
		got := Minimize(100, func(idx []int) bool { return contains(idx, 13, 77) })
		if !reflect.DeepEqual(got, []int{13, 77}) {
			t.Fatalf("got %v, want [13 77]", got)
		}
	})
	t.Run("singleton", func(t *testing.T) {
		got := Minimize(64, func(idx []int) bool { return contains(idx, 5) })
		if !reflect.DeepEqual(got, []int{5}) {
			t.Fatalf("got %v, want [5]", got)
		}
	})
	t.Run("size threshold", func(t *testing.T) {
		got := Minimize(50, func(idx []int) bool { return len(idx) >= 10 })
		if len(got) != 10 {
			t.Fatalf("got %d indices, want 10", len(got))
		}
	})
	t.Run("tiny inputs", func(t *testing.T) {
		if got := Minimize(1, func(idx []int) bool { return true }); !reflect.DeepEqual(got, []int{0}) {
			t.Fatalf("n=1: got %v", got)
		}
		if got := Minimize(0, func(idx []int) bool { return true }); len(got) != 0 {
			t.Fatalf("n=0: got %v", got)
		}
	})
}

// TestProfileByName: resolution and the error listing.
func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("cycle-heavy")
	if err != nil || p.Gen.Shape != ShapeCycleHeavy {
		t.Fatalf("cycle-heavy: %+v, %v", p, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile resolved")
	}
}

// TestRenumberLeavesOriginalsIntact: minimization probes must not corrupt
// the epoch they are shrinking.
func TestRenumberLeavesOriginalsIntact(t *testing.T) {
	_, sims := Generate(GenConfig{Seed: 2, Txs: 20, Keys: 8})
	sub := renumber(sims, []int{4, 9, 17})
	if sub[0].Tx.ID != 0 || sub[1].Tx.ID != 1 || sub[2].Tx.ID != 2 {
		t.Fatalf("renumbered ids wrong: %d %d %d", sub[0].Tx.ID, sub[1].Tx.ID, sub[2].Tx.ID)
	}
	if sims[4].Tx.ID != 4 || sims[9].Tx.ID != 9 || sims[17].Tx.ID != 17 {
		t.Fatal("renumber mutated the original epoch")
	}
}
