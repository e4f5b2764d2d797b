package chaos

import (
	"math/rand"
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/journal"
)

// TestCrashReplayResurrectionConverges is the deterministic regression
// test for ROADMAP item 6, the chaos seed-3 flake. The bug: mine()'s
// two-holder majority rule counted stalled nodes, although an armed
// delivery-drop means a stalled node never actually holds the broadcast.
// Under the right fault alignment — one node down, one stalled, one
// partitioned — the remaining node passed the majority check alone,
// solo-mined a private lineage, processed and persisted epochs built from
// it (becoming the agreed root reporter), and then crashed; the healed
// cluster re-mined those heights with different transactions and diverged
// from the dead node's agreed roots.
//
// Loaded CI runs hit that alignment ~1 in 25 times through probabilistic
// drop draws. This test forces it directly with failpoints and scripted
// harness state: the drop spec uses Prob 0 (always fire), so the window is
// exercised on every run regardless of scheduling. With the mine() fix the
// lone node is no longer eligible (a stalled peer does not count as a
// holder), nothing private is ever persisted, and the cluster converges.
func TestCrashReplayResurrectionConverges(t *testing.T) {
	fail.Reset()
	fail.Seed(3)
	defer fail.Reset()
	journal.Reset()
	journal.Enable()
	defer journal.Disable()

	// Two chains keep the solo-mining window short: the forced window must
	// mine deep enough past the pre-window heights for a private epoch to
	// clear confirmDepth on every chain.
	cfg := Config{Seed: 3, Nodes: 4, Chains: 2, Dir: t.TempDir()}
	cfg = cfg.withDefaults()
	h := newScriptedHarness(t, cfg)
	defer h.c.Close()

	r := 0
	step := func() {
		if h.fail != nil {
			return
		}
		h.beginRound(r)
		h.pump(r)
		h.mine(r)
		h.pump(r)
		h.process(r)
		h.syncStep()
		h.pump(r)
		r++
	}

	// Healthy shared history first, so the forced window has committed
	// epochs behind it.
	for i := 0; i < 6; i++ {
		step()
	}
	if h.fail != nil {
		t.Fatalf("base history failed: %v", h.fail.Error())
	}

	// Force the seed-3 fault alignment at round 6: n3 dead, n0 stalled
	// behind an always-fire delivery drop, n2 partitioned away — n1 is the
	// only node that can actually hold a new block.
	n0, n1, n2, n3 := h.nodes[0], h.nodes[1], h.nodes[2], h.nodes[3]
	h.kill(r, n3, "scripted crash")
	n3.restartAt = 20
	fail.Enable(fail.P2PDrop, fail.Spec{Mode: fail.ModeDrop, Tag: n0.ID, Count: 1 << 20})
	h.armedSites[fail.P2PDrop] = n0.ID
	n0.stalledUntil = 14
	h.minority = map[string]bool{n2.ID: true}
	h.c.Network().Partition([]string{n2.ID})
	h.healAt = 14

	// The window: under the pre-fix eligibility rule n1 passes the
	// majority check alone here (stalled n0 still counted as a holder),
	// solo-mines six rounds of private blocks, and persists epochs built
	// from them. Under the fixed rule nothing mines in these rounds.
	for i := 0; i < 6; i++ {
		step()
	}

	// Crash n1 through the stage-commit failpoint — the crash-replay the
	// seed-3 forensics implicated — then keep the cluster running: the
	// heal at round 14 lets n0 and n2 mine those heights themselves while
	// n1 is down, colliding with any roots n1 persisted and agreed.
	fail.Enable(fail.NodeStageCommit, fail.Spec{Mode: fail.ModePanic, Tag: n1.ID, Count: 1})
	h.armedSites[fail.NodeStageCommit] = n1.ID
	n1.pending = &pendingCrash{site: fail.NodeStageCommit, forceAt: r + crashForceAfter, downFor: 6}
	for i := 0; i < 12; i++ {
		step()
	}

	if h.fail == nil {
		h.converge()
	}
	if h.fail != nil {
		t.Fatalf("cluster failed to converge through the forced crash-replay interleaving: %v", h.fail.Error())
	}
	if h.res.Epochs < minEpochs {
		t.Fatalf("converged after only %d epochs; the forced window proved nothing", h.res.Epochs)
	}
	if h.res.CrashRestarts < 2 {
		t.Fatalf("expected both scripted crash-restarts, got %d", h.res.CrashRestarts)
	}
}

// newScriptedHarness builds a harness the way Run does, minus the seeded
// fault schedule — scripted tests drive rounds and arm faults themselves.
func newScriptedHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		maxHeights: make([]uint64, cfg.Chains),
		armedSites: make(map[fail.Name]string),
		now:        time.Unix(0, 0).Add(time.Hour),
		res:        &Result{Seed: cfg.Seed},
	}
	if err := h.setup(cfg.Dir); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return h
}
