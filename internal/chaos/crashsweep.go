package chaos

// The crash-point sweep: for every registered failpoint site (fail.AllNames)
// and a set of injected torn-WAL offsets, run one trial on the round engine
// over a two-member cluster without a fabric — a "victim" over a real LSM
// directory, the only miner, and a never-crashed "twin" over
// kvstore.Memory that does not mine and is handed every mined block — whose
// schedule holds exactly one fault: a crash at that site, a recovery site
// armed at a scripted mid-run restart, a torn WAL tail, or planted WAL
// corruption that recovery must refuse. The recovered victim must converge
// to the twin on every recovery invariant the engine checks: identical
// processed-epoch watermark, and for every epoch an identical state root and
// identical re-derived assembly digests (cluster.Agree).
//
// The sweep is what makes the failpoint registry honest: a crash site that
// exists but is never exercised proves nothing, so every name in the
// registry must either appear in a trial here or carry an explicit
// exemption with a reason (TestCrashSweepCoversRegistry enforces this), and
// a trial whose armed site never fired fails. Failpoints are process-global,
// so the sweep must not run concurrently with chaos scenarios or other
// failpoint users.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/nezha-dag/nezha/internal/cluster"
	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
)

const (
	sweepVictimID = "victim"
	sweepTwinID   = "sweep-twin"
	// sweepCrashAfter skips the first hits of a runtime-armed site so the
	// crash lands mid-history rather than on the very first event.
	sweepCrashAfter = 3
	// sweepReplayAfter places the recovery-replay crash mid-WAL rather
	// than on the first record (any mid-run restart replays far more
	// records than this).
	sweepReplayAfter = 8
	// sweepHistory is the history a trial's crash needs on each side: a
	// scripted restart waits until the twin has processed this many
	// epochs, and every trial runs on until this many more follow its
	// crash (harness.more).
	sweepHistory = minEpochs
	// sweepRoundsCap bounds a trial at this many times its Rounds.
	sweepRoundsCap = 4
)

// trialDir names a trial's directory after the trial.
var trialDir = strings.NewReplacer(":", "-", "/", "-", ".", "-")

// sweepExemptions lists the registered sites the sweep deliberately does
// not crash at, with the reason. Every fail.Name must be swept or listed
// here; the sweep errors out on any site that is neither.
var sweepExemptions = map[fail.Name]string{
	fail.BenchDisarmed: "benchmark-only site measuring the disarmed fast path; no node code hits it",
	fail.P2PDrop:       "evaluated on the network fabric's delivery goroutines — a panic there kills the whole process, and the sweep runs no fabric; the chaos scenarios cover delivery faults",
	fail.P2PStall:      "evaluated on the network fabric's delivery goroutines — a panic there kills the whole process, and the sweep runs no fabric; the chaos scenarios cover delivery faults",
}

// CrashSweepConfig parameterizes a crash-point sweep.
type CrashSweepConfig struct {
	// Dir is the root for per-trial LSM directories. Empty means a fresh
	// temp directory, removed when every trial passes and kept (with its
	// path in the report) when any fails.
	Dir string
	// Rounds is the mining rounds per trial; 0 means 12 (minimum 8). A
	// trial whose draw of blocks over chains paces its epochs slowly runs
	// on past it, up to sweepRoundsCap times as many, until its crash has
	// sweepHistory epochs on both sides.
	Rounds int
	// Chains is the OHIE chain count per trial; 0 means 2.
	Chains int
	// TornOffsets is how many fractional torn-WAL truncation points to
	// sweep; 0 means 4 (the minimum the recovery story promises).
	TornOffsets int
	// Seed seeds the workload generator; 0 means 11.
	Seed int64
	// Verbose, when set, receives one line per trial.
	Verbose io.Writer
}

func (c CrashSweepConfig) withDefaults() CrashSweepConfig {
	if c.Rounds == 0 {
		c.Rounds = 12
	}
	if c.Rounds < 8 {
		c.Rounds = 8
	}
	if c.Chains <= 0 {
		c.Chains = 2
	}
	if c.TornOffsets <= 0 {
		c.TornOffsets = 4
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	return c
}

// crashTrialSpec is one trial: its one fault, and how the cluster is
// shaped so the fault's site actually fires.
type crashTrialSpec struct {
	name string
	fault
	serial bool // run both members on the serial pipeline (node/stage-serial)
	tiny   bool // tiny memtable + aggressive compaction (kvstore/flush, kvstore/compact, kvstore/table-write)
	evict  bool // tiny mempool caps so eviction decisions fire
}

// shape turns a scenario's cluster into the trial's: the victim over its
// LSM directory as the only miner, the twin over kvstore.Memory, and no
// fabric.
func (sp *crashTrialSpec) shape(cc *cluster.Config) {
	lsm := cc.Open
	cc.IDs, cc.Miners, cc.Fabric = []string{sweepVictimID, sweepTwinID}, 1, nil
	cc.Open = func(id string) (kvstore.Store, error) {
		if id == sweepTwinID {
			return kvstore.NewMemory(), nil
		}
		return lsm(id)
	}
	if sp.evict {
		// One tiny shard: admission pressure forces evictions every block.
		cc.Node.Mempool = mempool.Config{Shards: 1, ShardCap: 8}
	}
	if sp.serial {
		cc.PerMember = nil
	}
}

// crashSweepSpecs expands the failpoint registry plus the WAL-mutation
// trials into the full trial list. It errors on any registered site that
// is neither swept nor exempted — adding a failpoint without deciding its
// crash-recovery story is exactly what the sweep exists to prevent.
// Runtime sites are armed from the first round; the scripted restarts
// happen half-way, and no earlier than the twin has processed sweepHistory
// epochs, so they have history on both sides.
func crashSweepSpecs(cfg CrashSweepConfig) ([]crashTrialSpec, error) {
	mid := cfg.Rounds / 2
	var specs []crashTrialSpec
	for _, name := range fail.AllNames() {
		if _, ok := sweepExemptions[name]; ok {
			continue
		}
		sp := crashTrialSpec{name: "site:" + string(name), fault: fault{kind: faultCrash, site: name, after: sweepCrashAfter}}
		switch name {
		case fail.KVFlush, fail.KVTableWrite:
			sp.tiny = true
		case fail.KVCompact:
			// A tiny store compacts only once tables pile up in size
			// tiers — about every third flush, so only a few times a
			// trial — and its first compaction already lands mid-history.
			sp.tiny, sp.after = true, 0
		case fail.KVWALReplay:
			sp.fault = fault{round: mid, epochs: sweepHistory, kind: faultRecovery, site: name, after: sweepReplayAfter}
		case fail.NodeRestore:
			sp.fault = fault{round: mid, epochs: sweepHistory, kind: faultRecovery, site: name}
		case fail.NodeStageSerial:
			sp.serial = true
		case fail.MempoolEvict:
			sp.evict = true
		case fail.MempoolAdmit, fail.KVWALAppend, fail.KVWALSync, fail.KVApply,
			fail.NodeSubmit, fail.NodePersist, fail.NodePersistDone,
			fail.NodeDivergeRoot, fail.NodeStageValidate, fail.NodeStageExecute,
			fail.NodeStageSchedule, fail.NodeStageCommit, fail.NodeStageSeal:
			// Default trial: panic the site at runtime, tagged to the victim.
		default:
			return nil, fmt.Errorf("chaos: registered failpoint %q is neither swept nor exempted — decide its crash-recovery story", name)
		}
		specs = append(specs, sp)
	}
	for i := 0; i < cfg.TornOffsets; i++ {
		frac := float64(i+1) / float64(cfg.TornOffsets+1)
		specs = append(specs, crashTrialSpec{
			name:  fmt.Sprintf("torn-wal:%.2f", frac),
			fault: fault{round: mid, epochs: sweepHistory, kind: faultTornWAL, frac: frac},
		})
	}
	specs = append(specs, crashTrialSpec{name: "corrupt-wal", fault: fault{round: mid, epochs: sweepHistory, kind: faultCorruptWAL}})
	return specs, nil
}

// CrashSweep runs one trial per spec sequentially (failpoints are
// process-global) and reports per-trial outcomes. The error reports
// harness setup problems only; recovery misbehavior lands in the report.
func CrashSweep(cfg CrashSweepConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	specs, err := crashSweepSpecs(cfg)
	if err != nil {
		return nil, err
	}
	root := cfg.Dir
	ephemeral := root == ""
	if ephemeral {
		if root, err = os.MkdirTemp("", "nezha-crashsweep-"); err != nil {
			return nil, err
		}
	}
	rep := &Report{label: "crash sweep", Exempt: map[string]string{}, Dir: root}
	for name, why := range sweepExemptions {
		rep.Exempt[string(name)] = why
	}
	for _, sp := range specs {
		rep.add(runCrashTrial(cfg, root, sp), cfg.Verbose)
	}
	if ephemeral && !rep.Failed() {
		os.RemoveAll(root)
		rep.Dir = ""
	}
	return rep, nil
}

// runCrashTrial runs one trial on the engine under its own directory.
func runCrashTrial(cfg CrashSweepConfig, root string, sp crashTrialSpec) *Result {
	tc := Config{Seed: cfg.Seed, Nodes: 2, Chains: cfg.Chains, Rounds: cfg.Rounds, Accounts: 200, trial: &sp}
	h, err := newHarness(tc, filepath.Join(root, trialDir.Replace(sp.name)))
	if err != nil {
		return &Result{Name: sp.name, Seed: cfg.Seed, Failure: tc.failure(0, "setup: "+err.Error())}
	}
	defer h.close()
	h.schedule = []fault{sp.fault}
	return h.run()
}

// tearWAL cuts the log at frac of its length: a torn tail recovery must
// truncate away.
func tearWAL(path string, frac float64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, min(int64(float64(fi.Size())*frac), fi.Size()-1))
}

// refuseCorruptWAL flips one byte in the middle of the log (intact records
// follow it, so this is corruption, not a torn tail) and requires the
// member's reopen to fail loudly with the typed error and a counter
// increment — never a silent truncation to the prefix.
func (h *harness) refuseCorruptWAL(cn *chaosNode, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) < 16 {
		return fmt.Errorf("log too short to plant corruption (%d bytes)", len(raw))
	}
	raw[len(raw)/4] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	before := kvstore.WALCorruptions()
	err = h.c.Reopen(cn.Member)
	switch {
	case err == nil:
		return fmt.Errorf("recovery accepted a log with planted mid-record corruption")
	case !errors.Is(err, kvstore.ErrWALCorrupt):
		return fmt.Errorf("recovery failed with %v, want ErrWALCorrupt", err)
	}
	if after := kvstore.WALCorruptions(); after <= before {
		return fmt.Errorf("nezha_wal_corruption_total did not increment (%.0f -> %.0f)", before, after)
	}
	return nil
}
