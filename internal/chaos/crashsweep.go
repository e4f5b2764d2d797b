package chaos

// The crash-point sweep: for every registered failpoint site (fail.AllNames)
// and a set of injected torn-WAL offsets, run a two-node trial — a "victim"
// over a real LSM directory that is crashed and restarted at exactly that
// point, and a never-crashed in-memory "twin" fed the same mined blocks —
// and assert the recovered victim converges to the twin on every recovery
// invariant: identical processed-epoch watermark, identical state root for
// every epoch, and identical re-derived assembly digests for every epoch.
//
// The sweep is what makes the failpoint registry honest: a crash site that
// exists but is never exercised proves nothing, so every name in the
// registry must either appear in a trial here or carry an explicit
// exemption with a reason (TestCrashSweepCoversRegistry enforces this).
// Failpoints are process-global, so the sweep must not run concurrently
// with chaos scenarios or other failpoint users.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/nezha-dag/nezha/internal/cluster"
	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/p2p"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
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
	// minSweepEpochs is the least committed-epoch watermark a trial must
	// reach for its convergence check to mean anything.
	minSweepEpochs = 3
)

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
	// Rounds is the mining rounds per trial; 0 means 12 (minimum 8, so
	// scripted mid-run restarts have history on both sides).
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

// CrashTrialResult is one crash-and-recover trial's outcome.
type CrashTrialResult struct {
	// Name identifies the trial: "site:<fail.Name>", "torn-wal:<frac>",
	// or "corrupt-wal".
	Name string
	// Crashes counts how many times the victim was crash-restarted.
	Crashes int
	// Epochs is the converged processed-epoch watermark.
	Epochs uint64
	// Err is empty on success.
	Err string
}

// CrashSweepReport aggregates a crash-point sweep.
type CrashSweepReport struct {
	Trials []CrashTrialResult
	// Exempt maps the registered-but-unswept site names to their reasons.
	Exempt map[string]string
	// Dir is where the per-trial stores live; retained on failure for
	// forensics.
	Dir string
}

// Failed reports whether any trial failed.
func (r *CrashSweepReport) Failed() bool {
	for _, t := range r.Trials {
		if t.Err != "" {
			return true
		}
	}
	return false
}

// Summary renders the sweep outcome as one line.
func (r *CrashSweepReport) Summary() string {
	failures, crashes := 0, 0
	var epochs uint64
	for _, t := range r.Trials {
		if t.Err != "" {
			failures++
		}
		crashes += t.Crashes
		epochs += t.Epochs
	}
	return fmt.Sprintf(
		"crash sweep: %d trials, %d failures | %d forced crashes, %d recovered epochs | %d sites exempt",
		len(r.Trials), failures, crashes, epochs, len(r.Exempt))
}

// crashTrialSpec selects what a single trial crashes and how the victim
// is configured so the site actually fires.
type crashTrialSpec struct {
	name     string
	site     fail.Name // runtime or recovery crash site; "" for WAL-mutation trials
	recovery bool      // arm the site at a scripted mid-run restart instead of at runtime
	serial   bool      // run both nodes on the serial pipeline (node/stage-serial)
	tiny     bool      // tiny memtable + aggressive compaction (kvstore/flush, kvstore/compact, kvstore/table-write)
	evict    bool      // tiny mempool caps so eviction decisions fire
	tornFrac float64   // >0: truncate the WAL to this fraction at a scripted restart
	corrupt  bool      // flip a mid-log WAL byte; recovery must reject loudly
}

func (sp crashTrialSpec) scripted() bool {
	return sp.recovery || sp.tornFrac > 0 || sp.corrupt
}

// crashSweepSpecs expands the failpoint registry plus the WAL-mutation
// trials into the full trial list. It errors on any registered site that
// is neither swept nor exempted — adding a failpoint without deciding its
// crash-recovery story is exactly what the sweep exists to prevent.
func crashSweepSpecs(cfg CrashSweepConfig) ([]crashTrialSpec, error) {
	var specs []crashTrialSpec
	for _, name := range fail.AllNames() {
		if _, ok := sweepExemptions[name]; ok {
			continue
		}
		sp := crashTrialSpec{name: "site:" + string(name), site: name}
		switch name {
		case fail.KVFlush, fail.KVCompact, fail.KVTableWrite:
			sp.tiny = true
		case fail.KVWALReplay, fail.NodeRestore:
			sp.recovery = true
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
			name:     fmt.Sprintf("torn-wal:%.2f", frac),
			tornFrac: frac,
		})
	}
	specs = append(specs, crashTrialSpec{name: "corrupt-wal", corrupt: true})
	return specs, nil
}

// CrashSweep runs one trial per spec sequentially (failpoints are
// process-global) and reports per-trial outcomes. The error reports
// harness setup problems only; recovery misbehavior lands in the report.
func CrashSweep(cfg CrashSweepConfig) (*CrashSweepReport, error) {
	cfg = cfg.withDefaults()
	specs, err := crashSweepSpecs(cfg)
	if err != nil {
		return nil, err
	}
	root := cfg.Dir
	ephemeral := false
	if root == "" {
		root, err = os.MkdirTemp("", "nezha-crashsweep-")
		if err != nil {
			return nil, err
		}
		ephemeral = true
	}
	rep := &CrashSweepReport{Exempt: map[string]string{}, Dir: root}
	for name, why := range sweepExemptions {
		rep.Exempt[string(name)] = why
	}

	// The recovery self-audit's digest cross-check only runs with the
	// journal on (restarted nodes compare re-derived assembly digests
	// against the ring's pre-crash events), so every trial doubles as an
	// audit exercise.
	wasEnabled := journal.Enabled()
	journal.Enable()
	defer func() {
		if !wasEnabled {
			journal.Disable()
		}
	}()

	for _, sp := range specs {
		res := runCrashTrial(cfg, root, sp)
		rep.Trials = append(rep.Trials, res)
		if cfg.Verbose != nil {
			status := "ok"
			if res.Err != "" {
				status = "FAIL: " + res.Err
			}
			fmt.Fprintf(cfg.Verbose, "%-28s %d crashes, %d epochs: %s\n",
				res.Name, res.Crashes, res.Epochs, status)
		}
	}
	if ephemeral && !rep.Failed() {
		os.RemoveAll(root)
		rep.Dir = ""
	}
	return rep, nil
}

// crashTrial is the per-trial engine state.
type crashTrial struct {
	cfg CrashSweepConfig
	sp  crashTrialSpec
	dir string

	txs    []*types.Transaction
	cursor int
	// mined holds every block in mining order; a restarted victim is
	// resubmitted the full sequence (duplicates are benign).
	mined []*types.Block

	// vc is the victim's one-member cluster over the trial directory.
	vc     *cluster.Cluster
	victim *cluster.Member
	// tick stamps the victim's blocks across its incarnations: the stamp
	// feeds the header hash and the hash picks the OHIE chain, so a wall
	// clock would make the epochs a trial reaches vary from run to run.
	tick    uint64
	twin    *node.Node
	tstore  *kvstore.Memory
	crashes int
}

func runCrashTrial(cfg CrashSweepConfig, root string, sp crashTrialSpec) CrashTrialResult {
	res := CrashTrialResult{Name: sp.name}
	fail.Reset()
	defer fail.Reset()
	// Each trial reuses the victim's journal id; clear the rings so the
	// recovery audit never cross-checks against a previous trial's epochs.
	journal.Reset()

	c := &crashTrial{cfg: cfg, sp: sp, dir: filepath.Join(root, sanitizeTrialName(sp.name))}
	if err := c.setup(); err != nil {
		res.Err = err.Error()
		return res
	}
	defer c.tstore.Close()
	defer c.vc.Close()

	done, err := c.run()
	res.Crashes = c.crashes
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if done {
		// WAL-corruption trials end at the loud rejection; there is no
		// recovered node to converge.
		return res
	}
	if err := c.verify(&res); err != nil {
		res.Err = err.Error()
	}
	return res
}

func sanitizeTrialName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '-'
		}
	}, name)
}

// setup builds the deterministic workload, the shared node config, the
// in-memory twin, and the first incarnation of the victim; runtime trials
// then arm their crash site tagged to the victim.
func (c *crashTrial) setup() error {
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     c.cfg.Seed,
		Accounts: 200,
		Skew:     0.5, InitialBalance: 1_000,
	})
	if err != nil {
		return err
	}
	c.txs = gen.Txs(c.cfg.Rounds * blocksPerRound * blockTxs)
	genesis, err := gen.GenesisWrites(c.txs)
	if err != nil {
		return err
	}
	base := node.Config{
		Consensus:     consensus.Params{Chains: c.cfg.Chains},
		Workers:       workers,
		Contracts:     smallbank.Contracts(),
		GenesisWrites: genesis,
		ConfirmDepth:  confirmDepth,
		Persist:       true,
		Mempool:       mempool.Config{ShardCap: -1, SenderCap: -1},
	}
	if c.sp.evict {
		// One tiny shard: admission pressure forces evictions every round.
		base.Mempool = mempool.Config{Shards: 1, ShardCap: 8}
	}
	perMember := cluster.Nezha
	if c.sp.serial {
		perMember = func(int, *node.Config) {}
	}

	c.tstore = kvstore.NewMemory()
	twinCfg := base
	perMember(0, &twinCfg)
	if c.twin, err = node.New(sweepTwinID, c.tstore, twinCfg); err != nil {
		return err
	}
	if c.vc, err = cluster.New(cluster.Config{
		IDs:       []string{sweepVictimID},
		Miners:    1,
		BlockSize: blockTxs,
		Node:      base,
		PerMember: perMember,
		Open:      c.openStore,
	}); err != nil {
		return err
	}
	c.victim = c.vc.Members[0]
	c.victim.Miner.SetClock(c.clock)
	if c.sp.site != "" && !c.sp.recovery {
		fail.Enable(c.sp.site, fail.Spec{
			Mode:  fail.ModePanic,
			Tag:   sweepVictimID,
			After: sweepCrashAfter,
			Count: 1,
		})
	}
	return nil
}

// openStore opens the victim's LSM directory.
func (c *crashTrial) openStore(string) (kvstore.Store, error) {
	opts := kvstore.DefaultLSMOptions()
	opts.FailTag = sweepVictimID
	if c.sp.tiny {
		// Force flushes and compactions inside the trial window so the
		// kvstore/flush, kvstore/compact and kvstore/table-write sites
		// actually fire.
		opts.MemtableBytes = 2 << 10
		opts.CompactAt = 2
	}
	return kvstore.OpenLSM(c.dir, opts)
}

// clock is the victim miners' logical clock (see tick).
func (c *crashTrial) clock() uint64 {
	c.tick++
	return c.tick
}

// openVictim reopens the victim over its directory (the crashed
// incarnation's store is abandoned unclosed: a crash does not flush) and
// resubmits the full mined history. Recovery-armed trials crash inside this
// path (WAL replay or metadata restore); the loop abandons the half-open
// incarnation and tries again, exactly like a supervisor restarting a
// crash-looping process whose fault was transient.
func (c *crashTrial) openVictim() error {
	for attempt := 0; attempt < 4; attempt++ {
		crashed, err := survive(func() error {
			if err := c.vc.Reopen(c.victim); err != nil {
				return err
			}
			c.victim.Miner.SetClock(c.clock)
			return c.resubmit()
		})
		if !crashed {
			return err
		}
		c.crashes++
		c.vc.Crash(c.victim)
	}
	return fmt.Errorf("victim crashed on every recovery attempt")
}

// resubmit replays the full mined history into the victim, the way a sync
// response does (already-known blocks are benign duplicates), and processes
// whatever became ready.
func (c *crashTrial) resubmit() error {
	if _, err := c.victim.Node.HandleSyncResponse(p2p.Message{Blocks: c.mined}); err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	_, err := c.victim.Node.ProcessReadyEpochs()
	return err
}

// victimOp runs op against the victim, crash-restarting it when the armed
// site fires. Returns any non-crash error.
func (c *crashTrial) victimOp(op func() error) error {
	crashed, err := survive(op)
	if crashed {
		c.crashes++
		return c.openVictim()
	}
	return err
}

// run drives the mining rounds. Returns done=true when the trial's story
// ends before convergence checks (the corrupt-WAL rejection trial).
func (c *crashTrial) run() (done bool, err error) {
	for r := 0; r < c.cfg.Rounds; r++ {
		if c.sp.scripted() && r == c.cfg.Rounds/2 {
			done, err := c.scriptedRestart()
			if done || err != nil {
				return done, err
			}
		}
		feed := c.txs[c.cursor : c.cursor+blocksPerRound*blockTxs]
		c.cursor += len(feed)
		if err := c.victimOp(func() error { c.victim.Miner.AddTxs(feed); return nil }); err != nil {
			return false, fmt.Errorf("round %d: add txs: %w", r, err)
		}
		for i := 0; i < blocksPerRound; i++ {
			var b *types.Block
			if err := c.victimOp(func() (err error) {
				b, err = c.victim.Miner.Mine(context.Background())
				return err
			}); err != nil {
				return false, fmt.Errorf("round %d: mine: %w", r, err)
			}
			if b == nil { // crashed mid-search and restarted: mine again
				i--
				continue
			}
			c.mined = append(c.mined, b)
			// Both ingest like a sync response: a stale block is benign.
			mined := p2p.Message{Blocks: []*types.Block{b}}
			if _, err := c.twin.HandleSyncResponse(mined); err != nil {
				return false, fmt.Errorf("round %d: twin ingest: %w", r, err)
			}
			if err := c.victimOp(func() error {
				_, err := c.victim.Node.HandleSyncResponse(mined)
				return err
			}); err != nil {
				return false, fmt.Errorf("round %d: victim ingest: %w", r, err)
			}
		}
		if err := c.victimOp(func() error {
			_, perr := c.victim.Node.ProcessReadyEpochs()
			return perr
		}); err != nil {
			return false, fmt.Errorf("round %d: victim process: %w", r, err)
		}
		if _, err := c.twin.ProcessReadyEpochs(); err != nil {
			return false, fmt.Errorf("round %d: twin process: %w", r, err)
		}
	}
	// Drain: one more restart-free pass so buffered orphans and the last
	// confirmable epochs land on both sides.
	if err := c.victimOp(func() error { return c.resubmit() }); err != nil {
		return false, err
	}
	if _, err := c.twin.ProcessReadyEpochs(); err != nil {
		return false, err
	}
	return false, nil
}

// scriptedRestart crash-abandons the victim mid-run and brings it back
// through the trial's recovery hazard: an armed recovery failpoint, a
// torn WAL tail, or planted mid-log corruption.
func (c *crashTrial) scriptedRestart() (done bool, err error) {
	c.crashes++
	c.vc.Crash(c.victim)
	walPath := filepath.Join(c.dir, "wal.log")
	switch {
	case c.sp.tornFrac > 0:
		fi, err := os.Stat(walPath)
		if err != nil {
			return false, err
		}
		cut := int64(float64(fi.Size()) * c.sp.tornFrac)
		if cut >= fi.Size() {
			cut = fi.Size() - 1
		}
		if err := os.Truncate(walPath, cut); err != nil {
			return false, err
		}
	case c.sp.corrupt:
		return true, c.runCorruptTrial(walPath)
	case c.sp.recovery:
		spec := fail.Spec{Mode: fail.ModePanic, Tag: sweepVictimID, Count: 1}
		if c.sp.site == fail.KVWALReplay {
			spec.After = sweepReplayAfter
		}
		fail.Enable(c.sp.site, spec)
	}
	return false, c.openVictim()
}

// runCorruptTrial flips one byte in the middle of the log (intact records
// follow it, so this is corruption, not a torn tail) and requires the
// reopen to fail loudly with the typed error and a counter increment —
// never a silent truncation to the prefix.
func (c *crashTrial) runCorruptTrial(walPath string) error {
	raw, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	if len(raw) < 16 {
		return fmt.Errorf("corrupt-wal: log too short to plant corruption (%d bytes)", len(raw))
	}
	raw[len(raw)/4] ^= 0xFF
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		return err
	}
	before := kvstore.WALCorruptions()
	opts := kvstore.DefaultLSMOptions()
	opts.FailTag = sweepVictimID
	store, err := kvstore.OpenLSM(c.dir, opts)
	if err == nil {
		store.Close()
		return fmt.Errorf("corrupt-wal: recovery accepted a log with planted mid-record corruption")
	}
	if !errors.Is(err, kvstore.ErrWALCorrupt) {
		return fmt.Errorf("corrupt-wal: recovery failed with %v, want ErrWALCorrupt", err)
	}
	if after := kvstore.WALCorruptions(); after <= before {
		return fmt.Errorf("corrupt-wal: nezha_wal_corruption_total did not increment (%.0f -> %.0f)", before, after)
	}
	return nil
}

// verify asserts the recovered victim converged to the never-crashed twin
// on every recovery invariant, and that the trial actually exercised its
// crash point.
func (c *crashTrial) verify(res *CrashTrialResult) error {
	if c.sp.site != "" && c.crashes == 0 {
		return fmt.Errorf("armed site %s never fired — the sweep lost coverage", c.sp.site)
	}
	vnext, tnext := c.victim.Node.NextEpoch(), c.twin.NextEpoch()
	res.Epochs = vnext - 1
	if vnext != tnext {
		return fmt.Errorf("watermark diverged: victim next epoch %d, twin %d", vnext, tnext)
	}
	if vnext-1 < minSweepEpochs {
		return fmt.Errorf("converged at only %d epochs; the trial proved nothing", vnext-1)
	}
	if _, err := cluster.Compare(c.victim.Node, c.twin, 0); err != nil {
		return err
	}
	for e := uint64(1); e < vnext; e++ {
		vg, vok := c.victim.Node.Ledger().EpochBlocks(e)
		tg, tok := c.twin.Ledger().EpochBlocks(e)
		if !vok || !tok {
			return fmt.Errorf("epoch %d: ledger cannot serve committed epoch (victim %v, twin %v)", e, vok, tok)
		}
		vbd, vtd := node.AssemblyDigests(e, vg)
		tbd, ttd := node.AssemblyDigests(e, tg)
		if vbd != tbd || vtd != ttd {
			return fmt.Errorf("epoch %d: assembly digests diverged: victim (%#x, %#x) twin (%#x, %#x)",
				e, vbd, vtd, tbd, ttd)
		}
	}
	return nil
}
