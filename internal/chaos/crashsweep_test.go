package chaos

import (
	"strings"
	"testing"

	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/kvstore"
)

// TestCrashSweepAllSites runs the full crash-point sweep: every registered
// failpoint site that can crash a node, plus the torn-WAL offsets and the
// planted-corruption trial. A failure here means some crash point leaves a
// restarted node that does not converge back to a never-crashed replica —
// the invariant the whole recovery story rests on.
func TestCrashSweepAllSites(t *testing.T) {
	fail.Reset()
	defer fail.Reset()

	tornBefore := kvstore.WALTornTails()
	cfg := CrashSweepConfig{Dir: t.TempDir()}
	rep, err := CrashSweep(cfg)
	if err != nil {
		t.Fatalf("sweep setup: %v", err)
	}
	if delta := kvstore.WALTornTails() - tornBefore; delta < 1 {
		t.Errorf("torn-WAL trials never tripped nezha_wal_torn_tail_total (delta %.0f)", delta)
	}
	for _, tr := range rep.Trials {
		if errOf(tr) != "" {
			t.Errorf("trial %s: %s", tr.Name, errOf(tr))
		}
	}
	t.Log(rep.Summary())

	// Shape: one trial per non-exempt site, the promised >=4 torn offsets,
	// and the corruption-rejection trial.
	wantSites := len(fail.AllNames()) - len(rep.Exempt)
	sites, torn, corrupt := 0, 0, 0
	for _, tr := range rep.Trials {
		switch {
		case strings.HasPrefix(tr.Name, "site:"):
			sites++
			if tr.CrashRestarts == 0 && errOf(tr) == "" {
				t.Errorf("trial %s reported success without a single crash", tr.Name)
			}
		case strings.HasPrefix(tr.Name, "torn-wal:"):
			torn++
		case tr.Name == "corrupt-wal":
			corrupt++
		default:
			t.Errorf("unrecognized trial name %q", tr.Name)
		}
	}
	if sites != wantSites {
		t.Errorf("swept %d sites, want %d (registry %d minus %d exempt)",
			sites, wantSites, len(fail.AllNames()), len(rep.Exempt))
	}
	if torn < 4 {
		t.Errorf("swept %d torn-WAL offsets, want >= 4", torn)
	}
	if corrupt != 1 {
		t.Errorf("got %d corrupt-wal trials, want 1", corrupt)
	}

	// Every miner's blocks are stamped by a logical clock, so the epochs a
	// trial reaches are a function of the seed and its crash point, not of
	// how busy the box is: a second sweep must reach the same ones. The
	// three sites that crash the store's worker goroutine are left out —
	// their crash surfaces on whichever Apply follows it, which is the
	// scheduler's call.
	again, err := CrashSweep(CrashSweepConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("second sweep setup: %v", err)
	}
	for i, tr := range rep.Trials {
		switch fail.Name(strings.TrimPrefix(tr.Name, "site:")) {
		case fail.KVFlush, fail.KVCompact, fail.KVTableWrite:
			continue
		}
		if got := again.Trials[i]; got.Name != tr.Name || got.Epochs != tr.Epochs || errOf(got) != errOf(tr) {
			t.Errorf("trial %s reached %d epochs (%q), then %s reached %d (%q) on the same seed",
				tr.Name, tr.Epochs, errOf(tr), got.Name, got.Epochs, errOf(got))
		}
	}
}

// TestCrashSweepCoversRegistry pins the sweep's exhaustiveness without
// running trials: every registered failpoint name must either produce a
// trial spec or carry an explicit exemption with a reason.
func TestCrashSweepCoversRegistry(t *testing.T) {
	cfg := CrashSweepConfig{}.withDefaults()
	specs, err := crashSweepSpecs(cfg)
	if err != nil {
		t.Fatalf("crashSweepSpecs: %v", err)
	}
	swept := map[string]bool{}
	for _, sp := range specs {
		if sp.site != "" {
			swept[string(sp.site)] = true
		}
	}
	for _, name := range fail.AllNames() {
		reason, exempt := sweepExemptions[name]
		switch {
		case exempt && swept[string(name)]:
			t.Errorf("site %s is both swept and exempted (%q)", name, reason)
		case exempt && reason == "":
			t.Errorf("site %s is exempted without a reason", name)
		case !exempt && !swept[string(name)]:
			t.Errorf("site %s is neither swept nor exempted", name)
		}
	}
}

// TestCrashSweepSlowDraw: at seed 8 the first twelve blocks of a trial land
// ten on one chain and two on the other, so a twelve-round trial reaches two
// epochs, and a restart scripted at round six had next to no history. The
// scripted restarts wait for the history watermark instead, every trial runs
// on until its crash has that history after it too, and the whole sweep
// passes — some trials only by mining past their twelve rounds.
func TestCrashSweepSlowDraw(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	cfg := CrashSweepConfig{Dir: t.TempDir(), Seed: 8}
	rep, err := CrashSweep(cfg)
	if err != nil {
		t.Fatalf("sweep setup: %v", err)
	}
	longer := 0
	for _, tr := range rep.Trials {
		if errOf(tr) != "" {
			t.Errorf("trial %s: %s", tr.Name, errOf(tr))
		}
		if tr.Blocks > cfg.withDefaults().Rounds*blocksPerRound {
			longer++
		}
	}
	if longer == 0 {
		t.Error("no trial ran past its rounds: the seed no longer draws a slow start, and this test proves nothing")
	}
}

// errOf is a run's failure message, "" when it converged.
func errOf(r *Result) string {
	if r.Failure == nil {
		return ""
	}
	return r.Failure.Msg
}
