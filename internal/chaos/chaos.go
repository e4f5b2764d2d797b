// Package chaos is the fault-injection convergence harness: one round
// engine drives an in-process cluster (real Node, Miner, Syncer and LSM
// store, built by internal/cluster) through a seeded workload and a fault
// schedule, and the cluster must CONVERGE — every member reaches the same
// epoch watermark, and every two members recorded the same state root and
// re-derive the same assembly digests for every epoch both processed
// (cluster.Agree), a restarted member's recovered epochs included.
//
// Run (and Sweep over seeds) is a chaos scenario: four miners on one
// simulated fabric under a seeded schedule of crash-restarts, partitions,
// storage and admission errors and peer stalls; at the end every fault is
// disarmed, the network heals and the dead restart from their stores.
// CrashSweep (crashsweep.go) runs one two-member trial per failpoint site
// and WAL mutation, each with exactly one fault.
//
// The workload, the schedule, every probabilistic failpoint and the miners'
// logical clock draw from the seed, so a failing seed re-runs the same
// faults over the same blocks; message timing may vary, but a seed that
// fails intermittently is still a real bug. Every Failure embeds the
// nezha-chaos command that reproduces it.
//
// Block production is deliberately fork-free: only caught-up members may
// mine, and every block must be holdable by two non-stalled majority-side
// members (see pickMiner), so any state divergence is attributable to the
// injected faults rather than to fork-choice finality (fork convergence
// under concurrent mining is cluster.TestGossipNetworkConvergesOnRoots'
// job). Faults still create real disagreement — crashed members lose their
// unpersisted ledger tail, partitioned and stalled members miss broadcasts
// — which the self-healing sync layer must repair.
//
// Failpoints are process-global: runs must not overlap.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

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

// Run shape. Small fixed knobs live here rather than in Config: the
// harness's value is reproducibility, not tunability.
const (
	blocksPerRound  = 2
	blockTxs        = 20
	confirmDepth    = 2
	syncBatch       = 16
	workers         = 2
	crashForceAfter = 3 // rounds before an unfired crash failpoint becomes a hard kill
	restartAttempts = 4 // reopens a crash-looping member gets before the run fails
	syncRoundStep   = 25 * time.Millisecond
	convergeTimeout = 90 * time.Second
	minEpochs       = 3 // a converged run processing fewer epochs proved nothing
)

// crashSites are the failpoints a scenario's crash fault may arm; all sit
// on paths a live member exercises every round or two, so an armed
// ModePanic fires quickly (crashForceAfter is the backstop).
var crashSites = []fail.Name{
	fail.NodePersist,
	fail.NodeSubmit,
	fail.KVWALAppend,
	fail.NodeStageCommit,
}

// Config parameterizes one chaos scenario.
type Config struct {
	// Seed drives the workload, the fault schedule, failpoint probability,
	// and sync jitter. The replay key.
	Seed int64
	// Nodes is the cluster size. 0 means 4 (minimum 3: partitions need a
	// majority side that can keep mining).
	Nodes int
	// Chains is the OHIE parallel-chain count. 0 means 3.
	Chains int
	// Rounds is how many fault-active rounds run before the convergence
	// phase. 0 means 36 (minimum 24 so the mandatory fault windows fit).
	Rounds int
	// Accounts sizes the SmallBank workload's account set. 0 means 300.
	Accounts int
	// Dir is the scratch root for per-node LSM directories. Empty means a
	// temp directory that is removed when the scenario ends.
	Dir string
	// JournalDir, when set, receives every node's flight-recorder journal
	// (one <node>.journal per node) whether or not the scenario fails.
	// When empty, journals are dumped only on failure, into a preserved
	// temp directory named in the Failure.
	JournalDir string
	// Verbose, when set, receives the scenario's event log as it happens.
	Verbose io.Writer

	// signed signs the workload and turns signature verification on in
	// every node (and pool), so crash→restore→resync runs with it: restored
	// and synced blocks are decoded, carry no verdict, and are verified in
	// full. Signing changes sender addresses and with them every hash, so
	// it is a scenario of its own (TestScenarioSigned), not a default.
	signed bool
	// wide gives the nodes different commit widths (wideWorkers, by index)
	// and every block wideBlockTxs transactions, enough for each epoch's
	// trie flush to fan out: replicas that cut the same commit across a
	// different number of workers must still agree on every root
	// (TestScenarioMixedWorkers).
	wide bool
	// trial, when set, makes the run a crash-sweep trial (crashsweep.go).
	trial *crashTrialSpec
}

// The wide scenario's shape.
const wideBlockTxs = 160

var wideWorkers = [...]int{1, 2, 3, 16}

// txsPerBlock is how many transactions a block carries.
func (c Config) txsPerBlock() int {
	if c.wide {
		return wideBlockTxs
	}
	return blockTxs
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Nodes < 3 {
		c.Nodes = 3
	}
	if c.Chains <= 0 {
		c.Chains = 3
	}
	if c.Rounds < 24 {
		if c.Rounds != 0 {
			c.Rounds = 24
		} else {
			c.Rounds = 36
		}
	}
	if c.Accounts <= 0 {
		c.Accounts = 300
	}
	return c
}

// maxRounds is the most fault rounds the run may take: its Rounds, or for a
// crash trial sweepRoundsCap times as many (harness.more).
func (c Config) maxRounds() int {
	if c.trial != nil {
		return sweepRoundsCap * c.Rounds
	}
	return c.Rounds
}

// name identifies the run in reports: its seed, or a crash trial's name.
func (c Config) name() string {
	if c.trial != nil {
		return c.trial.name
	}
	return fmt.Sprintf("seed %d", c.Seed)
}

// failure is the run's verdict at round r, with the command that
// reproduces it.
func (c Config) failure(r int, msg string) *Failure {
	replay := fmt.Sprintf("nezha-chaos replay -seed %d", c.Seed)
	if c.trial != nil {
		replay = fmt.Sprintf("nezha-chaos sweep-crash -seed %d -rounds %d -chains %d -v", c.Seed, c.Rounds, c.Chains)
	}
	return &Failure{Seed: c.Seed, Round: r, Msg: msg, name: c.name(), replay: replay}
}

// Failure is one run's verdict when the cluster misbehaved. Its message
// embeds everything needed to re-run it.
type Failure struct {
	Seed  int64
	Round int
	Msg   string
	// JournalDir is where the per-node flight-recorder journals were
	// dumped (empty only if the dump itself failed).
	JournalDir string
	// Divergence is the first-divergence forensics report from pairwise
	// journal diffs — the earliest (epoch, kind) where two nodes recorded
	// different deterministic events. Empty when the journals agree (the
	// failure was a wedge or timeout, not a state split).
	Divergence string

	name, replay string
}

// Error implements error with the replay command inline, mirroring
// internal/check's replayable failures.
func (f *Failure) Error() string {
	s := fmt.Sprintf("chaos: %s round %d: %s (reproduce: %s)", f.name, f.Round, f.Msg, f.replay)
	if f.JournalDir != "" {
		s += "; journals: " + f.JournalDir
	}
	if f.Divergence != "" {
		s += "\n" + f.Divergence
	}
	return s
}

// Result is the record of one run: a scenario or a crash trial.
type Result struct {
	// Name is "seed <n>" for a scenario and the trial's name for a crash
	// trial: "site:<fail.Name>", "torn-wal:<frac>" or "corrupt-wal".
	Name string
	Seed int64
	// Epochs is how many epochs the converged cluster processed.
	Epochs uint64
	// Blocks is how many blocks were mined and delivered.
	Blocks int
	// CrashRestarts counts kills — a failpoint panic, a forced or scripted
	// kill, a crash inside a restart — each followed by a restart from the
	// member's on-disk state.
	CrashRestarts int
	// Partitions counts partition/heal cycles.
	Partitions int
	// StorageErrors counts injected storage errors a node observed and
	// survived.
	StorageErrors int
	// MempoolFaults counts admission-fault windows armed against pools.
	MempoolFaults int
	// Stalls counts peer-stall faults (probabilistic delivery drops).
	Stalls int
	// CommitWidths is, per node, the widest commit-stage fan-out it
	// recorded since it last (re)started; 0 if it processed nothing since.
	CommitWidths []int
	// Events is the run's fault/recovery log.
	Events []string
	// Failure is nil when the cluster converged.
	Failure *Failure

	// schedule is the fault schedule the run was built with.
	schedule []fault
}

// faultKind enumerates the engine's fault repertoire.
type faultKind int

const (
	faultCrash faultKind = iota
	faultPartition
	faultStorage
	faultStall
	faultMempool
	// A crash trial's scripted restarts: kill the victim, then reopen it
	// through an armed recovery site, after cutting its WAL short, or after
	// flipping a mid-log WAL byte, which the reopen must refuse.
	faultRecovery
	faultTornWAL
	faultCorruptWAL
)

func (k faultKind) String() string {
	return [...]string{"crash", "partition", "storage", "stall", "mempool", "recovery", "torn-wal", "corrupt-wal"}[k]
}

// fault is one scheduled fault: a round, a preferred target (resolved to a
// live member when applied) and kind-specific parameters.
type fault struct {
	round    int
	epochs   uint64 // and no earlier than the twin has processed this many epochs (crash trials)
	kind     faultKind
	node     int
	site     fail.Name // crash or recovery failpoint
	after    int       // hits the site lets pass before it fires
	duration int       // rounds down / partitioned / stalled / admission-faulted
	frac     float64   // torn-WAL cut, as a fraction of the log
}

// arm is one fault in force. beginRound expires it at round until (0
// means never; an expiring crash arm becomes a hard kill), kill disarms
// its member's arms, and converge clears the list.
type arm struct {
	kind    faultKind
	site    fail.Name // the failpoint it enabled; "" for a partition
	node    *chaosNode
	until   int
	downFor int // a crash arm: rounds its member stays down once killed
}

// chaosNode is one cluster member plus its harness bookkeeping.
type chaosNode struct {
	*cluster.Member
	idx    int
	peers  []string
	syncer *node.Syncer // nil without a fabric

	down      bool
	restartAt int
}

// harness is the round engine: one run's cluster, workload and faults.
type harness struct {
	cfg      Config
	root     string
	rng      *rand.Rand
	c        *cluster.Cluster
	nodes    []*chaosNode
	txs      []*types.Transaction
	txCursor int
	schedule []fault
	armed    []arm

	// mined is every delivered block in mining order; without a fabric a
	// restarted member is handed it as its missing history.
	mined []*types.Block
	// maxHeights[c] is the height of chain c in the authoritative mined
	// history (every delivered block).
	maxHeights []uint64
	// now is the virtual clock the syncers run on; it advances a fixed
	// step per round so deadlines and backoff replay deterministically.
	now time.Time
	// tick is the miners' logical clock (see clock).
	tick uint64
	// stop ends a crash trial whose story finishes before convergence.
	stop bool
	// struckAt is the twin's processed-epoch watermark when a crash trial's
	// fault first killed the victim.
	struckAt uint64

	res  *Result
	fail *Failure
}

// armHook, when non-nil, runs right after newHarness seeds the failpoint
// substrate (which resets it first). Test-only: forensics meta-tests use
// it to arm failpoints the fault schedule does not know about.
var armHook func()

// Run executes one scenario. The returned error reports harness setup
// problems (an unwritable scratch dir); cluster misbehavior is reported
// via Result.Failure so a sweep can keep going and collect seeds.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	root := cfg.Dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "nezha-chaos-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}
	h, err := newHarness(cfg, root)
	if err != nil {
		return nil, err
	}
	defer h.close()
	h.schedule = h.buildSchedule()
	return h.run(), nil
}

// newHarness builds one run under root: a reset failpoint substrate seeded
// with cfg.Seed, fresh flight recorders (every member journals from block
// zero, and a failure dumps them all), the workload and its genesis, and
// the cluster — cfg.Nodes miners on one fabric, or a crash trial's victim
// and twin. close undoes it.
func newHarness(cfg Config, root string) (_ *harness, err error) {
	fail.Reset()
	fail.Seed(cfg.Seed)
	if armHook != nil {
		armHook()
	}
	h := &harness{
		cfg:        cfg,
		root:       root,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		maxHeights: make([]uint64, cfg.Chains),
		now:        time.Unix(0, 0).Add(time.Hour),
		res:        &Result{Name: cfg.name(), Seed: cfg.Seed},
	}
	journal.Reset()
	journal.Enable()
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     cfg.Seed,
		Accounts: uint64(cfg.Accounts),
		Skew:     0.5, InitialBalance: 1_000,
		Sign: cfg.signed,
	})
	if err != nil {
		return nil, err
	}
	perRound := blocksPerRound * cfg.txsPerBlock()
	h.txs = gen.Txs(cfg.Rounds * perRound)
	genesis, err := gen.GenesisWrites(h.txs)
	if err != nil {
		return nil, err
	}
	// A crash trial that runs past its Rounds (harness.more) mines on with
	// transactions drawn after the genesis, so its first Rounds replay
	// exactly as a trial of fixed length would.
	h.txs = append(h.txs, gen.Txs((cfg.maxRounds()-cfg.Rounds)*perRound)...)
	ids := make([]string, cfg.Nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
	}
	cc := cluster.Config{
		IDs:       ids,
		Miners:    len(ids),
		BlockSize: cfg.txsPerBlock(),
		Node: node.Config{
			Consensus:        consensus.Params{Chains: cfg.Chains},
			Workers:          workers,
			Contracts:        smallbank.Contracts(),
			GenesisWrites:    genesis,
			ConfirmDepth:     confirmDepth,
			Persist:          true,
			SyncBatch:        syncBatch,
			VerifySignatures: cfg.signed,
			// Caps lifted: what a lost block leaves queued waits, never
			// refused. The generator's global nonce counter is sparse per
			// sender, so StrictNonce stays off.
			Mempool: mempool.Config{ShardCap: -1, SenderCap: -1, VerifySignatures: cfg.signed},
		},
		PerMember: func(i int, nc *node.Config) {
			cluster.Nezha(i, nc)
			if cfg.wide {
				nc.Workers = wideWorkers[i%len(wideWorkers)]
			}
		},
		// Each member's LSM directory; a crash restart reopens it and
		// node.New restores whatever the member persisted.
		Open: func(id string) (kvstore.Store, error) {
			opts := kvstore.DefaultLSMOptions()
			opts.FailTag = id
			if cfg.trial != nil && cfg.trial.tiny {
				// Flushes and compactions inside the trial window, so the
				// kvstore/flush, kvstore/compact and kvstore/table-write
				// sites actually fire.
				opts.MemtableBytes = 2 << 10
				opts.CompactAt = 2
			}
			return kvstore.OpenLSM(h.storeDir(id), opts)
		},
		Fabric: &p2p.Config{QueueLen: 512, Seed: cfg.Seed},
	}
	if cfg.trial != nil {
		cfg.trial.shape(&cc)
	}
	if h.c, err = cluster.New(cc); err != nil {
		return nil, err
	}
	for i, m := range h.c.Members {
		cn := &chaosNode{Member: m, idx: i, peers: slices.Delete(slices.Clone(cc.IDs), i, i+1)}
		h.nodes = append(h.nodes, cn)
		if err := h.rejoin(cn); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// close closes the cluster and resets the substrate newHarness set up.
func (h *harness) close() {
	if h.c != nil {
		h.c.Close()
	}
	fail.Reset()
	journal.Disable()
}

// storeDir is member id's LSM directory.
func (h *harness) storeDir(id string) string {
	return filepath.Join(h.root, fmt.Sprintf("seed%d-%s", h.cfg.Seed, id))
}

// clock stamps every miner's blocks. The stamp feeds the header hash and
// the hash picks the OHIE chain, so a wall clock would make chain
// assignment — and with it the epochs a run reaches — vary between runs.
func (h *harness) clock() uint64 {
	h.tick++
	return h.tick
}

// rejoin wires a member that just opened into the run: its miner onto the
// logical clock and, with a fabric, a fresh syncer (sync state dies with
// the process) behind a drained endpoint; without one, the mined history
// handed over as a sync response (blocks it kept are benign duplicates).
func (h *harness) rejoin(cn *chaosNode) error {
	if cn.Miner != nil {
		cn.Miner.SetClock(h.clock)
	}
	net := h.c.Network()
	if net == nil {
		_, err := cn.Node.HandleSyncResponse(p2p.Message{Blocks: h.mined})
		return err
	}
	cn.syncer = node.NewSyncer(cn.Node, cn.Endpoint, cn.peers, node.SyncConfig{
		RequestTimeout: 40 * time.Millisecond,
		BackoffBase:    15 * time.Millisecond,
		BackoffMax:     120 * time.Millisecond,
		DemoteAfter:    2,
		Seed:           h.cfg.Seed + int64(cn.idx),
	})
	cn.Endpoint.Drain()
	net.SetDown(cn.ID, false)
	return nil
}

// run drives the fault rounds, then converges (unless a crash trial's
// story ended first), dumps the journals, and returns the record.
func (h *harness) run() *Result {
	h.res.schedule = h.schedule
	next := 0
	for r := 0; h.more(r) && h.fail == nil && !h.stop; r++ {
		h.beginRound(r)
		for ; next < len(h.schedule) && h.due(r, h.schedule[next]); next++ {
			h.applyFault(r, h.schedule[next])
		}
		h.step(r)
	}
	if h.fail == nil && !h.stop {
		h.converge()
	}
	h.dumpJournals()
	h.res.Failure = h.fail
	return h.res
}

// more reports whether the fault rounds go on at round r. A scenario runs
// its Rounds. A crash trial runs at least as many, and then on until its
// fault has struck and the twin has processed sweepHistory epochs past the
// strike — history on both sides of the crash, however the draw of blocks
// over chains paced the epochs — but never past maxRounds.
func (h *harness) more(r int) bool {
	if r < h.cfg.Rounds {
		return true
	}
	if h.cfg.trial == nil || r >= h.cfg.maxRounds() {
		return false
	}
	return h.res.CrashRestarts == 0 || h.history() < h.struckAt+sweepHistory
}

// due reports whether fault f applies at round r.
func (h *harness) due(r int, f fault) bool {
	return f.round <= r && (f.epochs == 0 || h.history() >= f.epochs)
}

// history is a crash trial's watermark: the epochs the twin, which never
// crashes and is handed every mined block, has processed. An epoch needs a
// block at its height on every chain, so it counts the history all chains
// share.
func (h *harness) history() uint64 {
	return h.nodes[len(h.nodes)-1].Node.NextEpoch() - 1
}

// step is a round past its faults: deliver what is in flight, mine, deliver,
// process and check agreement, tick the syncers, deliver.
func (h *harness) step(r int) {
	h.pump(r)
	h.mine(r)
	h.pump(r)
	h.process(r)
	h.syncStep()
	h.pump(r)
}

// dumpJournals writes every node's flight recorder to disk — always when
// the run asked for a journal directory, and on failure otherwise (into a
// preserved temp directory) — then runs pairwise diffs and embeds the
// earliest divergence in the Failure. Dump problems are reported as
// events, never as run failures: forensics must not mask the verdict.
func (h *harness) dumpJournals() {
	dir := h.cfg.JournalDir
	if dir == "" {
		if h.fail == nil {
			return
		}
		tmp, err := os.MkdirTemp("", "nezha-journal-")
		if err != nil {
			h.eventf(h.cfg.Rounds, "journal dump failed: %v", err)
			return
		}
		dir = tmp // deliberately preserved: it is the crash-dump artifact
	}
	if err := journal.DumpAll(dir); err != nil {
		h.eventf(h.cfg.Rounds, "journal dump failed: %v", err)
		return
	}
	if h.fail == nil {
		return
	}
	h.fail.JournalDir = dir
	// Pairwise first-divergence scan; report the earliest mismatch.
	recs := journal.Recorders()
	var first *journal.Divergence
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			d := journal.Diff(recs[i].Snapshot(), recs[j].Snapshot())
			if d == nil {
				continue
			}
			if first == nil || d.Epoch < first.Epoch {
				first = d
			}
		}
	}
	if first != nil {
		h.fail.Divergence = first.String()
	}
}

// buildSchedule precomputes a scenario's fault plan in round order: one
// mandatory fault of every kind (crash-restart, partition/heal, storage
// error and peer stall in disjoint round windows, an admission-fault
// window anywhere), plus seeded extras.
func (h *harness) buildSchedule() []fault {
	var sched []fault
	add := func(r int, f fault) {
		f.round = r
		sched = append(sched, f)
	}
	pick := func(lo, hi int) int { return lo + h.rng.Intn(hi-lo) }
	crash := func() fault {
		return fault{
			kind: faultCrash, node: h.rng.Intn(h.cfg.Nodes),
			site: crashSites[h.rng.Intn(len(crashSites))], duration: 2 + h.rng.Intn(3),
		}
	}
	R := h.cfg.Rounds

	add(pick(2, R/4), fault{kind: faultStorage, node: h.rng.Intn(h.cfg.Nodes)})
	add(pick(R/4, R/2), crash())
	add(pick(R/2, 3*R/4), fault{
		kind: faultPartition, node: h.rng.Intn(h.cfg.Nodes), duration: 3 + h.rng.Intn(3),
	})
	add(pick(3*R/4, R-2), fault{
		kind: faultStall, node: h.rng.Intn(h.cfg.Nodes), duration: 3,
	})
	add(pick(2, R-2), fault{kind: faultMempool, node: h.rng.Intn(h.cfg.Nodes), duration: 2})

	for r := 2; r < R-2; r++ {
		if h.rng.Float64() < 0.05 {
			add(r, crash())
		}
		if h.rng.Float64() < 0.08 {
			add(r, fault{kind: faultStorage, node: h.rng.Intn(h.cfg.Nodes)})
		}
		if h.rng.Float64() < 0.08 {
			add(r, fault{kind: faultStall, node: h.rng.Intn(h.cfg.Nodes), duration: 3})
		}
		if h.rng.Float64() < 0.04 {
			add(r, fault{kind: faultPartition, node: h.rng.Intn(h.cfg.Nodes), duration: 3})
		}
		if h.rng.Float64() < 0.08 {
			add(r, fault{kind: faultMempool, node: h.rng.Intn(h.cfg.Nodes), duration: 2})
		}
	}
	// Stable: a round's mandatory faults apply before its extras.
	slices.SortStableFunc(sched, func(a, b fault) int { return a.round - b.round })
	return sched
}

// beginRound expires the arms due this round, then restarts the members
// due back.
func (h *harness) beginRound(r int) {
	for _, a := range slices.Clone(h.armed) {
		switch {
		case a.until == 0 || r < a.until:
		case a.kind == faultCrash:
			// The armed site was never hit (the member idled); crash it the
			// blunt way so the schedule's kill still happens.
			h.kill(r, a.node, "forced kill, failpoint "+string(a.site)+" never fired")
		default:
			h.disarm(r, func(b arm) bool { return b == a })
		}
	}
	for _, cn := range h.nodes {
		if cn.down && r >= cn.restartAt && h.fail == nil {
			h.restart(r, cn)
		}
	}
}

// applyFault arms one scheduled fault, retargeting or skipping when the
// cluster state makes it unsafe: one fault of a kind in force at a time
// (each kind owns its failpoint, and Enable replaces), and one crash in
// flight — nobody down — keeps every block replicated.
func (h *harness) applyFault(r int, f fault) {
	cn := h.pickAlive(f.node)
	if cn == nil || h.armedOn(f.kind, nil) {
		return
	}
	switch f.kind {
	case faultCrash:
		if slices.ContainsFunc(h.nodes, func(n *chaosNode) bool { return n.down }) {
			return
		}
		until := r + crashForceAfter
		if h.cfg.trial != nil {
			until = 0 // a trial waits for its own site to fire (converge checks it did)
		}
		h.arm(arm{kind: f.kind, site: f.site, node: cn, until: until, downFor: f.duration},
			fail.Spec{Mode: fail.ModePanic, After: f.after, Count: 1})
		h.eventf(r, "armed crash failpoint %s@%s", f.site, cn.ID)
	case faultStorage:
		h.arm(arm{kind: f.kind, site: fail.KVApply, node: cn}, fail.Spec{Mode: fail.ModeError, Count: 1})
		h.eventf(r, "armed storage error %s@%s", fail.KVApply, cn.ID)
	case faultPartition:
		h.arm(arm{kind: f.kind, node: cn, until: r + f.duration}, fail.Spec{})
		h.res.Partitions++
		h.eventf(r, "partitioned %s away for %d rounds", cn.ID, f.duration)
	case faultStall:
		h.arm(arm{kind: f.kind, site: fail.P2PDrop, node: cn, until: r + f.duration},
			fail.Spec{Mode: fail.ModeDrop, Prob: 0.8, Count: 20})
		h.res.Stalls++
		h.eventf(r, "stalling deliveries to %s for %d rounds", cn.ID, f.duration)
	case faultMempool:
		// Probabilistic admission errors against one miner's pool: some of
		// its fed transactions never enter a block. Convergence must hold
		// anyway — admission shapes block content, never block execution.
		h.arm(arm{kind: f.kind, site: fail.MempoolAdmit, node: cn, until: r + f.duration},
			fail.Spec{Mode: fail.ModeError, Prob: 0.5, Count: 10})
		h.res.MempoolFaults++
		h.eventf(r, "admission faults at %s for %d rounds", cn.ID, f.duration)
	default:
		h.scriptedRestart(r, cn, f)
	}
}

// arm puts a in force — its failpoint enabled per spec, tagged to its
// member, or its member partitioned away — and records it in the target's
// journal: chaos/* events are forensic context, tying what the harness did
// to what the member subsequently recorded.
func (h *harness) arm(a arm, spec fail.Spec) {
	fields := []journal.Field{journal.FS("kind", a.kind.String())}
	if a.kind == faultPartition {
		h.c.Network().Partition([]string{a.node.ID})
	} else {
		spec.Tag = a.node.ID
		fail.Enable(a.site, spec)
		fields = append(fields, journal.FS("site", string(a.site)))
	}
	h.armed = append(h.armed, a)
	journal.For(a.node.ID).Emit(journal.ChaosFault, 0, fields...)
}

// disarm takes the arms match selects out of force: their failpoints are
// disabled, a partition heals.
func (h *harness) disarm(r int, match func(arm) bool) {
	h.armed = slices.DeleteFunc(h.armed, func(a arm) bool {
		if !match(a) {
			return false
		}
		if a.kind == faultPartition {
			h.c.Network().Heal()
			h.eventf(r, "partition healed")
		} else {
			fail.Disable(a.site)
		}
		return true
	})
}

// armedOn reports whether an arm of kind is in force on cn, or on any
// member when cn is nil.
func (h *harness) armedOn(kind faultKind, cn *chaosNode) bool {
	return slices.ContainsFunc(h.armed, func(a arm) bool {
		return a.kind == kind && (cn == nil || a.node == cn)
	})
}

// pickAlive resolves a preferred node index to a live node, scanning
// forward so the choice stays deterministic.
func (h *harness) pickAlive(idx int) *chaosNode {
	for i := 0; i < len(h.nodes); i++ {
		cn := h.nodes[(idx+i)%len(h.nodes)]
		if !cn.down {
			return cn
		}
	}
	return nil
}

// guard runs op on a live member: an injected crash panic kills it (and
// restarts it at once when its crash arm says so), an injected error is a
// survived storage fault, anything else fails the run.
func (h *harness) guard(r int, cn *chaosNode, op func() error) {
	if cn.down || h.fail != nil {
		return
	}
	crashed, err := survive(op)
	switch {
	case crashed:
		h.kill(r, cn, "crash failpoint fired")
		if cn.restartAt <= r {
			h.restart(r, cn)
		}
	case errors.Is(err, fail.ErrInjected):
		h.res.StorageErrors++
		h.disarm(r, func(a arm) bool { return a.kind == faultStorage })
		h.eventf(r, "%s survived injected error: %v", cn.ID, err)
	case err != nil:
		h.failf(r, "%s: %v", cn.ID, err)
	}
}

// survive runs op and reports whether an armed crash failpoint fired inside
// it; any other panic is a real bug and propagates.
func survive(op func() error) (crashed bool, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if !fail.IsCrash(rec) {
				panic(rec)
			}
			crashed, err = true, nil
		}
	}()
	return false, op()
}

// kill simulates SIGKILL: the member's in-memory state is abandoned (the
// store is deliberately NOT closed — a crash does not flush), its arms are
// disarmed (a dead member observes none of them, and their sites free up
// for later faults), the endpoint goes down, and a restart is due after
// its crash arm's downtime.
func (h *harness) kill(r int, cn *chaosNode, why string) {
	downFor := 3
	for _, a := range h.armed {
		if a.node == cn && a.kind == faultCrash {
			downFor = a.downFor
		}
	}
	h.disarm(r, func(a arm) bool { return a.node == cn })
	cn.down = true
	cn.restartAt = r + downFor
	journal.For(cn.ID).Emit(journal.ChaosKill, 0, journal.FS("why", why))
	if net := h.c.Network(); net != nil {
		net.SetDown(cn.ID, true)
	}
	if h.cfg.trial != nil && h.res.CrashRestarts == 0 {
		h.struckAt = h.history()
	}
	h.c.Crash(cn.Member)
	h.res.CrashRestarts++
	h.eventf(r, "%s crashed (%s), restart at round %d", cn.ID, why, cn.restartAt)
}

// restart reopens a crashed member over its store (cluster.Reopen) and
// rejoins it; when a recovery site crashes the reopen, it retries like a
// supervisor restarting a crash-looping process whose fault was transient.
// The next agreement check compares every root and assembly the member
// recovered with the live cluster's: a difference means the crash tore
// durability.
func (h *harness) restart(r int, cn *chaosNode) {
	for attempt := 0; attempt < restartAttempts; attempt++ {
		crashed, err := survive(func() error {
			if err := h.c.Reopen(cn.Member); err != nil {
				return err
			}
			return h.rejoin(cn)
		})
		switch {
		case crashed:
			h.kill(r, cn, "crash failpoint fired during restart")
		case err != nil:
			h.failf(r, "restart %s: %v", cn.ID, err)
			return
		default:
			cn.down = false
			journal.For(cn.ID).Emit(journal.ChaosRestart, cn.Node.NextEpoch())
			h.eventf(r, "%s restarted at epoch %d", cn.ID, cn.Node.NextEpoch())
			return
		}
	}
	h.failf(r, "%s crashed on every restart attempt", cn.ID)
}

// scriptedRestart is a crash trial's restart through its recovery hazard:
// the victim is killed, then reopened into an armed recovery site or over
// a torn WAL tail — or over planted mid-log corruption, which the reopen
// must refuse loudly, ending the trial.
func (h *harness) scriptedRestart(r int, cn *chaosNode, f fault) {
	h.kill(r, cn, "scripted crash")
	wal := filepath.Join(h.storeDir(cn.ID), "wal.log")
	var err error
	switch f.kind {
	case faultRecovery:
		h.arm(arm{kind: faultCrash, site: f.site, node: cn}, fail.Spec{Mode: fail.ModePanic, After: f.after, Count: 1})
	case faultTornWAL:
		err = tearWAL(wal, f.frac)
	case faultCorruptWAL:
		h.stop = true // no recovered member to converge
		err = h.refuseCorruptWAL(cn, wal)
	}
	switch {
	case err != nil:
		h.failf(r, "%s: %v", f.kind, err)
	case !h.stop:
		h.restart(r, cn)
	}
}

// aliveMax returns the per-chain maximum height over live nodes — the
// catch-up target (a crashed node may have taken the global tip down with
// it; what matters is what the live cluster can still serve).
func (h *harness) aliveMax() []uint64 {
	max := make([]uint64, h.cfg.Chains)
	for _, cn := range h.nodes {
		if cn.down {
			continue
		}
		for c := 0; c < h.cfg.Chains; c++ {
			if hgt := cn.Node.Ledger().Height(uint32(c)); hgt > max[c] {
				max[c] = hgt
			}
		}
	}
	return max
}

// caughtUp reports whether a node holds every chain at the live maximum.
func (h *harness) caughtUp(cn *chaosNode, max []uint64) bool {
	for c := 0; c < h.cfg.Chains; c++ {
		if cn.Node.Ledger().Height(uint32(c)) < max[c] {
			return false
		}
	}
	return true
}

// pickMiner picks the next block's miner among the fully caught-up,
// majority-side members that mine — the fork-free discipline in the
// package comment — or nil when fewer than two members could HOLD the
// block, so no mined block can ever have a single holder. Stalled members
// are excluded from that holder count, not just from candidacy: a stalled
// member's armed delivery-drop makes it a holder on paper only, and a sole
// candidate mining into stalled and partitioned peers builds a private
// lineage that it alone persists — which a later crash-replay resurrects
// against the cluster's re-mined history of those heights. That
// resurrection was the seed-3 divergence (ROADMAP item 6;
// regression-tested in TestCrashReplayResurrectionConverges).
func (h *harness) pickMiner() *chaosNode {
	max := h.aliveMax()
	var candidates []*chaosNode
	holders := 0
	for _, cn := range h.nodes {
		if cn.down || h.armedOn(faultPartition, cn) || h.armedOn(faultStall, cn) {
			continue
		}
		holders++
		if cn.Miner != nil && h.caughtUp(cn, max) {
			candidates = append(candidates, cn)
		}
	}
	if holders < 2 || len(candidates) == 0 {
		return nil
	}
	return candidates[h.rng.Intn(len(candidates))]
}

// mine produces this round's blocks: each one's miner is fed the next
// batch of the workload (admission runs its failpoint, which refuses some
// of the batch by design, so the count goes unchecked), mines, submits the
// block to its own node and delivers it.
func (h *harness) mine(r int) {
	for i := 0; i < blocksPerRound && h.fail == nil; i++ {
		cn := h.pickMiner()
		if cn == nil {
			return // nobody can safely mine this round; sync will catch up
		}
		var b *types.Block
		h.guard(r, cn, func() error {
			end := min(h.txCursor+h.cfg.txsPerBlock(), len(h.txs))
			batch := h.txs[h.txCursor:end]
			h.txCursor = end
			cn.Miner.AddTxs(batch)
			mined, err := cn.Miner.Mine(context.Background())
			if err == nil {
				err = cn.Node.SubmitBlock(mined)
			}
			if err == nil {
				b = mined
			}
			return err
		})
		if b == nil {
			continue // crashed or failed on ingest: the block dies with it
		}
		h.deliver(r, cn, b)
		c := int(b.Header.ChainID)
		if b.Header.Height != h.maxHeights[c]+1 && b.Header.Height > h.maxHeights[c] {
			h.failf(r, "mined block skipped heights on chain %d: %d after %d",
				c, b.Header.Height, h.maxHeights[c])
			return
		}
		if b.Header.Height > h.maxHeights[c] {
			h.maxHeights[c] = b.Header.Height
		}
		h.res.Blocks++
	}
}

// deliver gets a mined block to the other members: broadcast on the
// fabric, or without one handed to every live member as a sync response.
func (h *harness) deliver(r int, from *chaosNode, b *types.Block) {
	h.mined = append(h.mined, b)
	if h.c.Network() != nil {
		from.Endpoint.Broadcast(p2p.Message{Type: p2p.MsgBlock, Block: b})
		return
	}
	for _, cn := range h.nodes {
		if cn != from {
			h.guard(r, cn, func() error {
				_, err := cn.Node.HandleSyncResponse(p2p.Message{Blocks: []*types.Block{b}})
				return err
			})
		}
	}
}

// pump delivers everything in flight on the fabric before anyone processes
// (cluster.Drain; nothing without a fabric); a run failure stops it.
func (h *harness) pump(r int) {
	if h.fail != nil {
		return
	}
	err := h.c.Drain(func(i int, msg p2p.Message) error {
		h.dispatch(r, h.nodes[i], msg)
		if h.fail != nil {
			return errors.New("run failed")
		}
		return nil
	})
	if err != nil && h.fail == nil {
		// A message livelock (a sync exchange that never terminates, say):
		// fail with state instead of hanging the harness.
		h.failf(r, "%v: %s", err, h.describeNodes())
	}
}

func (h *harness) dispatch(r int, cn *chaosNode, msg p2p.Message) {
	// A delivered message carries the sender's logical clock: witnessing it
	// makes cross-node journal timelines causally comparable.
	if msg.From != "" && journal.Enabled() {
		journal.For(cn.ID).Witness(journal.For(msg.From).Clock())
	}
	h.guard(r, cn, func() error {
		var err error
		if msg.Type == p2p.MsgBlocks {
			_, err = cn.syncer.HandleBlocks(h.now, msg)
		} else {
			_, err = cn.Node.HandleMessage(cn.Endpoint, msg)
		}
		return err
	})
}

// process lets every live member fold its ready epochs, then checks the
// harness's core assertion: deterministic processing over an
// eventually-identical block set yields identical epochs, so every two
// live members recorded the same root, and re-derive the same assembly,
// for every epoch both processed.
func (h *harness) process(r int) {
	for _, cn := range h.nodes {
		h.guard(r, cn, func() error {
			_, err := cn.Node.ProcessReadyEpochs()
			return err
		})
	}
	if err := h.c.Agree(); err != nil && h.fail == nil {
		h.failf(r, "state divergence: %v", err)
	}
}

// syncStep advances the virtual clock one round and ticks the syncer of
// every live member that is behind the live maximum: deadlines expire,
// backoff elapses, rotation and pagination proceed.
func (h *harness) syncStep() {
	h.now = h.now.Add(syncRoundStep)
	max := h.aliveMax()
	for _, cn := range h.nodes {
		if !cn.down && cn.syncer != nil && !h.caughtUp(cn, max) {
			cn.syncer.Tick(h.now)
		}
	}
}

// converge is the final phase: every arm cleared (first failing a trial
// whose crash site never fired — it lost its coverage), the network
// healed, the dead restarted, then deliver/process/sync until every member
// holds the same chains and the same watermark — or the timeout, and
// without a fabric the first pass that falls short, declares the cluster
// wedged. The last process has then checked every member's every epoch.
func (h *harness) converge() {
	r := h.cfg.Rounds
	for _, a := range h.armed {
		if a.kind == faultCrash && a.until == 0 {
			h.failf(r, "armed site %s never fired — the sweep lost coverage", a.site)
			return
		}
	}
	fail.Reset()
	h.armed = nil
	if net := h.c.Network(); net != nil {
		net.Heal()
	}
	for _, cn := range h.nodes {
		if cn.down {
			h.restart(r, cn)
			if h.fail != nil {
				return
			}
		}
	}

	deadline := time.Now().Add(convergeTimeout)
	for {
		h.pump(r)
		h.process(r)
		if h.fail != nil {
			return
		}
		max, done := h.aliveMax(), true
		for _, cn := range h.nodes {
			done = done && h.caughtUp(cn, max) && cn.Node.NextEpoch() == h.nodes[0].Node.NextEpoch()
		}
		if done {
			break
		}
		if h.c.Network() == nil || time.Now().After(deadline) {
			h.failf(r, "no convergence: %s", h.describeNodes())
			return
		}
		h.syncStep()
	}

	target := h.nodes[0].Node.NextEpoch()
	if target-1 < minEpochs {
		h.failf(r, "converged after only %d epochs; the run proved nothing", target-1)
		return
	}
	h.res.Epochs = target - 1
	for _, cn := range h.nodes {
		width := 0
		for _, es := range cn.Node.Metrics().Epochs() {
			for _, st := range es.Stages {
				if st.Name == "commit" {
					width = max(width, st.Workers)
				}
			}
		}
		h.res.CommitWidths = append(h.res.CommitWidths, width)
	}
	h.eventf(r, "converged: %d epochs, %d blocks, roots and assemblies identical on all %d nodes",
		h.res.Epochs, h.res.Blocks, len(h.nodes))
}

// describeNodes summarizes per-node progress for failure messages.
func (h *harness) describeNodes() string {
	s := ""
	for _, cn := range h.nodes {
		if s != "" {
			s += "; "
		}
		if cn.down {
			s += fmt.Sprintf("%s down", cn.ID)
			continue
		}
		s += fmt.Sprintf("%s epoch %d heights", cn.ID, cn.Node.NextEpoch())
		for c := 0; c < h.cfg.Chains; c++ {
			s += fmt.Sprintf(" %d", cn.Node.Ledger().Height(uint32(c)))
		}
	}
	return s
}

func (h *harness) eventf(r int, format string, args ...any) {
	ev := fmt.Sprintf("round %d: %s", r, fmt.Sprintf(format, args...))
	h.res.Events = append(h.res.Events, ev)
	if h.cfg.Verbose != nil {
		fmt.Fprintln(h.cfg.Verbose, ev)
	}
}

// failf records the run's first failure; later faults and assertions are
// moot once the cluster is known bad.
func (h *harness) failf(r int, format string, args ...any) {
	if h.fail != nil {
		return
	}
	h.fail = h.cfg.failure(r, fmt.Sprintf(format, args...))
	if h.cfg.Verbose != nil {
		fmt.Fprintln(h.cfg.Verbose, "FAIL:", h.fail.Error())
	}
}
