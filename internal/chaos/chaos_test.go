package chaos

import (
	"slices"
	"strings"
	"testing"

	"github.com/nezha-dag/nezha/internal/crypto"
)

// TestScenarioConverges runs single seeded scenarios end to end: faults
// fire, the cluster heals, and every node ends on identical per-epoch
// roots. Each seed is a subtest so a failure names its replay seed.
func TestScenarioConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos scenario")
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(strings.Join([]string{"seed", string(rune('0' + seed))}, ""), func(t *testing.T) {
			res, err := Run(Config{Seed: seed, Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("harness: %v", err)
			}
			if res.Failure != nil {
				for _, ev := range res.Events {
					t.Log(ev)
				}
				t.Fatal(res.Failure.Error())
			}
			if res.Epochs < minEpochs {
				t.Fatalf("only %d epochs processed", res.Epochs)
			}
			if res.CrashRestarts < 1 || res.Partitions < 1 || res.StorageErrors < 1 || res.Stalls < 1 {
				t.Fatalf("mandatory faults missing: %d crashes, %d partitions, %d storage errors, %d stalls\n%s",
					res.CrashRestarts, res.Partitions, res.StorageErrors, res.Stalls,
					strings.Join(res.Events, "\n"))
			}
		})
	}
}

// TestScenarioReplaysDeterministically: the same seed must produce the
// same fault schedule — every fault's round, kind, target, site and
// duration — and converge both times: the property the replay CLI relies
// on. Message timing may vary between runs, so only seed-derived
// quantities are compared.
func TestScenarioReplaysDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos scenario")
	}
	a, err := Run(Config{Seed: 7, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 7, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Failure != nil || b.Failure != nil {
		t.Fatalf("seed 7 failed: %v / %v", a.Failure, b.Failure)
	}
	if len(a.schedule) == 0 {
		t.Fatal("seed 7 built an empty fault schedule")
	}
	if !slices.Equal(a.schedule, b.schedule) {
		t.Fatalf("fault schedule diverged between identical seeds:\n%+v\n%+v", a.schedule, b.schedule)
	}
}

// TestSweepAggregates runs a tiny sweep through the CI entry point.
func TestSweepAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos sweep")
	}
	rep, err := Sweep(SweepConfig{
		StartSeed: 100,
		Seeds:     2,
		Scenario:  Config{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		for _, f := range rep.Failures() {
			t.Error(f.Error())
		}
		t.FailNow()
	}
	if len(rep.Trials) != 2 || rep.Trials[0].Epochs == 0 || rep.Trials[1].Epochs == 0 {
		t.Fatalf("sweep under-reported: %s", rep.Summary())
	}
}

// TestScenarioMempoolConverges pins the admission-fault window every
// schedule carries: admission faults drop fed transactions at one node's
// pool, and convergence must hold regardless — admission shapes block
// content, never block execution.
func TestScenarioMempoolConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos scenario")
	}
	res, err := Run(Config{Seed: 5, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if res.Failure != nil {
		for _, ev := range res.Events {
			t.Log(ev)
		}
		t.Fatal(res.Failure.Error())
	}
	if res.MempoolFaults < 1 {
		t.Fatalf("the schedule armed no admission faults\n%s", strings.Join(res.Events, "\n"))
	}
	if res.Epochs < minEpochs {
		t.Fatalf("only %d epochs processed", res.Epochs)
	}
}

// TestScenarioMixedWorkers: four nodes whose commits fan out across 1, 2, 3
// and 16 workers process the same epochs — each large enough for the trie
// to cut its flush — through crash, restore, partition and resync, and
// converge on one root per epoch: the commit width is not part of the
// state.
func TestScenarioMixedWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos scenario")
	}
	res, err := Run(Config{Seed: 18, Rounds: 24, Accounts: 2_000, Dir: t.TempDir(), wide: true})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if res.Failure != nil {
		for _, ev := range res.Events {
			t.Log(ev)
		}
		t.Fatal(res.Failure.Error())
	}
	if res.Epochs < minEpochs {
		t.Fatalf("only %d epochs processed", res.Epochs)
	}
	// The epochs really were cut: every node that processed anything since
	// its last restart did so at its own width, and they differ.
	distinct := map[int]bool{}
	for i, width := range res.CommitWidths {
		if width != 0 && width != wideWorkers[i] {
			t.Fatalf("node %d committed %d wide, configured %d: %v", i, width, wideWorkers[i], res.CommitWidths)
		}
		distinct[width] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("commit widths %v: the scenario compared fewer than three", res.CommitWidths)
	}
}

// TestScenarioSigned is the one scenario with signatures on: an existing
// seed, the shortest schedule, every pool and every validation stage
// verifying. Crash, restore, partition and resync must
// converge exactly as they do unsigned, and no fault may cost an honest
// signature its block. In-process gossip and sync hand over transaction
// objects, so verdicts travel with them; what a restarted node decodes from
// its store carries none (node.TestNodeRestartFromPersistedStore).
func TestScenarioSigned(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos scenario")
	}
	count := func(outcome string) float64 { return crypto.SigCounter(outcome).Value() }
	full0, bad0 := count("full"), count("bad")
	res, err := Run(Config{Seed: 1, Rounds: 24, Dir: t.TempDir(), signed: true})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if res.Failure != nil {
		for _, ev := range res.Events {
			t.Log(ev)
		}
		t.Fatal(res.Failure.Error())
	}
	if res.Epochs < minEpochs || res.CrashRestarts < 1 {
		t.Fatalf("%d epochs, %d crash restarts", res.Epochs, res.CrashRestarts)
	}
	if full := count("full") - full0; full == 0 {
		t.Fatal("a signed scenario ran without a single signature verification")
	}
	if bad := count("bad") - bad0; bad != 0 {
		t.Fatalf("%v honest signatures rejected", bad)
	}
}
