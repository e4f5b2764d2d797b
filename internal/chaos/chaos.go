// Package chaos is the fault-injection convergence harness: an in-process
// multi-node cluster (real Node, Miner, Syncer, LSM store, and simulated
// p2p fabric, built by internal/cluster) driven by a seeded workload while
// a seeded fault scheduler crash-restarts nodes, partitions and heals the
// network, injects storage errors, and stalls peers. After the fault rounds
// every failpoint is disarmed, the network heals, crashed nodes restart
// from their on-disk state, and the cluster must CONVERGE: every node
// reaches the same epoch watermark and reports byte-for-byte identical
// state roots for every processed epoch, with each restarted node's
// recovered roots matching what the cluster had already agreed on.
//
// Determinism and replay: the workload, the fault schedule, and every
// probabilistic failpoint draw from the scenario seed, so a failing seed
// re-runs the same faults (goroutine interleaving — hence exact message
// timing — may vary, but convergence is required under EVERY
// interleaving; a seed that fails intermittently is still a real bug).
// Every Failure message embeds the nezha-chaos replay command.
//
// The harness deliberately keeps block production fork-free: only nodes
// that hold every block any live node holds may mine, and every mined
// block must be holdable by at least two non-stalled majority-side nodes,
// so the block DAG grows linearly and any state divergence is attributable
// to the injected faults rather than to probabilistic fork-choice finality
// (fork convergence under concurrent mining is
// cluster.TestGossipNetworkConvergesOnRoots' job). The two-holder rule
// counts only nodes that can actually receive the broadcast — a stalled
// node's armed delivery-drop makes it a holder on paper only (see mine) —
// otherwise a solo miner can persist a private lineage whose crash-replay
// later collides with the cluster's re-mined history (the seed-3
// divergence, ROADMAP item 6). Faults still create real disagreement —
// crashed nodes lose their unpersisted ledger tail, partitioned and
// stalled nodes miss broadcasts — which the self-healing sync layer must
// repair.
//
// Failpoints are process-global, so scenarios must not run concurrently;
// Run executes its seed sweep sequentially.
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

// Scenario shape. Small fixed knobs live here rather than in Config: the
// harness's value is reproducibility, not tunability.
const (
	blocksPerRound  = 2
	blockTxs        = 20
	confirmDepth    = 2
	syncBatch       = 16
	workers         = 2
	crashForceAfter = 3 // rounds before an unfired crash failpoint becomes a hard kill
	syncRoundStep   = 25 * time.Millisecond
	convergeTimeout = 90 * time.Second
	minEpochs       = 3 // a converged run processing fewer epochs proved nothing
)

// crashSites are the failpoints a crash fault may arm; all sit on paths a
// live node exercises every round or two, so an armed ModePanic fires
// quickly (crashForceAfter is the backstop).
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

// Failure is one scenario's verdict when the cluster misbehaved. Its
// message embeds everything needed to re-run the scenario.
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
}

// Error implements error with the replay command inline, mirroring
// internal/check's replayable failures.
func (f *Failure) Error() string {
	s := fmt.Sprintf("chaos: seed %d round %d: %s (reproduce: nezha-chaos replay -seed %d)",
		f.Seed, f.Round, f.Msg, f.Seed)
	if f.JournalDir != "" {
		s += "; journals: " + f.JournalDir
	}
	if f.Divergence != "" {
		s += "\n" + f.Divergence
	}
	return s
}

// Result reports one scenario.
type Result struct {
	Seed int64
	// Epochs is how many epochs the converged cluster processed.
	Epochs uint64
	// Blocks is how many blocks were mined and broadcast.
	Blocks int
	// CrashRestarts counts nodes killed (failpoint panic or forced) and
	// later restarted from their on-disk state.
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
	// Events is the scenario's fault/recovery log.
	Events []string
	// Failure is nil when the cluster converged.
	Failure *Failure
}

// faultKind enumerates the scheduler's fault repertoire.
type faultKind int

const (
	faultCrash faultKind = iota
	faultPartition
	faultStorage
	faultStall
	faultMempool
)

// fault is one scheduled fault: a preferred target (resolved to a live
// node at apply time) plus kind-specific parameters.
type fault struct {
	kind     faultKind
	node     int
	site     fail.Name // crash failpoint site
	duration int       // rounds down / partitioned / stalled
}

// pendingCrash tracks an armed crash failpoint that has not fired yet.
type pendingCrash struct {
	site    fail.Name
	forceAt int // round at which the arm becomes a hard kill
	downFor int
}

// chaosNode is one cluster member plus its harness bookkeeping.
type chaosNode struct {
	*cluster.Member
	idx    int
	peers  []string
	syncer *node.Syncer

	down         bool
	restartAt    int
	pending      *pendingCrash
	stalledUntil int
	mpFaultUntil int
}

// harness drives one scenario.
type harness struct {
	cfg      Config
	rng      *rand.Rand
	c        *cluster.Cluster
	nodes    []*chaosNode
	txs      []*types.Transaction
	txCursor int
	schedule map[int][]fault

	// maxHeights[c] is the height of chain c in the authoritative mined
	// history (every broadcast block). Mining eligibility and the
	// convergence target both derive from it.
	maxHeights []uint64
	// armedSites maps failpoint name -> target node id while armed, so two
	// faults never fight over one site (Enable replaces).
	armedSites map[fail.Name]string
	// now is the virtual clock the syncer runs on; it advances a fixed
	// step per round so deadlines and backoff replay deterministically.
	now time.Time

	minority map[string]bool
	healAt   int

	res  *Result
	fail *Failure
}

// dbgHook, when non-nil, is invoked just before a convergence-timeout
// failure. Test-only diagnostics.
var dbgHook func(*harness)

// armHook, when non-nil, runs right after Run seeds the failpoint
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

	fail.Reset()
	fail.Seed(cfg.Seed)
	defer fail.Reset()
	if armHook != nil {
		armHook()
	}

	// Fresh flight recorders for the scenario: every node journals from
	// block zero, and a failure dumps them all (see dumpJournals).
	journal.Reset()
	journal.Enable()
	defer journal.Disable()

	h := &harness{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		maxHeights: make([]uint64, cfg.Chains),
		armedSites: make(map[fail.Name]string),
		now:        time.Unix(0, 0).Add(time.Hour),
		res:        &Result{Seed: cfg.Seed},
	}
	if err := h.setup(root); err != nil {
		return nil, err
	}
	defer h.c.Close()

	h.schedule = h.buildSchedule()
	for r := 0; r < cfg.Rounds && h.fail == nil; r++ {
		h.beginRound(r)
		for _, f := range h.schedule[r] {
			h.applyFault(r, f)
		}
		h.pump(r)
		h.mine(r)
		h.pump(r)
		h.process(r)
		h.syncStep()
		h.pump(r)
	}
	if h.fail == nil {
		h.converge()
	}
	h.dumpJournals()
	h.res.Failure = h.fail
	return h.res, nil
}

// dumpJournals writes every node's flight recorder to disk — always when
// the scenario asked for a journal directory, and on failure otherwise
// (into a preserved temp directory) — then runs pairwise diffs and embeds
// the earliest divergence in the Failure. Dump problems are reported as
// events, never as scenario failures: forensics must not mask the verdict.
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

// setup builds the workload, the network, and the initial cluster.
func (h *harness) setup(root string) error {
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     h.cfg.Seed,
		Accounts: uint64(h.cfg.Accounts),
		Skew:     0.5, InitialBalance: 1_000,
		Sign: h.cfg.signed,
	})
	if err != nil {
		return err
	}
	h.txs = gen.Txs(h.cfg.Rounds * blocksPerRound * h.cfg.txsPerBlock())
	genesis, err := gen.GenesisWrites(h.txs)
	if err != nil {
		return err
	}
	ids := make([]string, h.cfg.Nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
	}
	h.c, err = cluster.New(cluster.Config{
		IDs:       ids,
		Miners:    len(ids),
		BlockSize: h.cfg.txsPerBlock(),
		Node: node.Config{
			Consensus:        consensus.Params{Chains: h.cfg.Chains},
			Workers:          workers,
			Contracts:        smallbank.Contracts(),
			GenesisWrites:    genesis,
			ConfirmDepth:     confirmDepth,
			Persist:          true,
			SyncBatch:        syncBatch,
			VerifySignatures: h.cfg.signed,
			// Caps lifted: what a lost block leaves queued waits, never
			// refused. The generator's global nonce counter is sparse per
			// sender, so StrictNonce stays off.
			Mempool: mempool.Config{ShardCap: -1, SenderCap: -1, VerifySignatures: h.cfg.signed},
		},
		PerMember: func(i int, cfg *node.Config) {
			cluster.Nezha(i, cfg)
			if h.cfg.wide {
				cfg.Workers = wideWorkers[i%len(wideWorkers)]
			}
		},
		// Each node's LSM directory; a crash restart reopens it and node.New
		// restores whatever the node persisted.
		Open: func(id string) (kvstore.Store, error) {
			opts := kvstore.DefaultLSMOptions()
			opts.FailTag = id
			return kvstore.OpenLSM(filepath.Join(root, fmt.Sprintf("seed%d-%s", h.cfg.Seed, id)), opts)
		},
		Fabric: &p2p.Config{QueueLen: 512, Seed: h.cfg.Seed},
	})
	if err != nil {
		return err
	}
	for i, m := range h.c.Members {
		cn := &chaosNode{Member: m, idx: i, peers: slices.Delete(slices.Clone(ids), i, i+1)}
		h.newSyncer(cn)
		h.nodes = append(h.nodes, cn)
	}
	return nil
}

// newSyncer gives a node that just opened a fresh syncer: sync state dies
// with the process.
func (h *harness) newSyncer(cn *chaosNode) {
	cn.syncer = node.NewSyncer(cn.Node, cn.Endpoint, cn.peers, node.SyncConfig{
		RequestTimeout: 40 * time.Millisecond,
		BackoffBase:    15 * time.Millisecond,
		BackoffMax:     120 * time.Millisecond,
		DemoteAfter:    2,
		Seed:           h.cfg.Seed + int64(cn.idx),
	})
}

// buildSchedule precomputes the fault plan: one mandatory fault of every
// kind (crash-restart, partition/heal, storage error and peer stall in
// disjoint round windows, an admission-fault window anywhere), plus seeded
// extras.
func (h *harness) buildSchedule() map[int][]fault {
	sched := make(map[int][]fault)
	add := func(r int, f fault) { sched[r] = append(sched[r], f) }
	pick := func(lo, hi int) int { return lo + h.rng.Intn(hi-lo) }
	R := h.cfg.Rounds

	add(pick(2, R/4), fault{kind: faultStorage, node: h.rng.Intn(h.cfg.Nodes)})
	add(pick(R/4, R/2), fault{
		kind: faultCrash, node: h.rng.Intn(h.cfg.Nodes),
		site: crashSites[h.rng.Intn(len(crashSites))], duration: 2 + h.rng.Intn(3),
	})
	add(pick(R/2, 3*R/4), fault{
		kind: faultPartition, node: h.rng.Intn(h.cfg.Nodes), duration: 3 + h.rng.Intn(3),
	})
	add(pick(3*R/4, R-2), fault{
		kind: faultStall, node: h.rng.Intn(h.cfg.Nodes), duration: 3,
	})
	add(pick(2, R-2), fault{kind: faultMempool, node: h.rng.Intn(h.cfg.Nodes), duration: 2})

	for r := 2; r < R-2; r++ {
		if h.rng.Float64() < 0.05 {
			add(r, fault{
				kind: faultCrash, node: h.rng.Intn(h.cfg.Nodes),
				site: crashSites[h.rng.Intn(len(crashSites))], duration: 2 + h.rng.Intn(3),
			})
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
	return sched
}

// beginRound expires round-scoped conditions: heals due partitions,
// restarts due nodes, force-kills overdue crash arms, clears expired
// stalls.
func (h *harness) beginRound(r int) {
	if h.healAt != 0 && r >= h.healAt {
		h.c.Network().Heal()
		h.minority, h.healAt = nil, 0
		h.eventf(r, "partition healed")
	}
	for _, cn := range h.nodes {
		if cn.down && r >= cn.restartAt {
			h.restart(r, cn)
			if h.fail != nil {
				return
			}
		}
		if !cn.down && cn.pending != nil && r >= cn.pending.forceAt {
			// The armed site was never hit (the node idled); crash it the
			// blunt way so the schedule's kill still happens.
			h.kill(r, cn, "forced kill, failpoint "+string(cn.pending.site)+" never fired")
		}
		if cn.stalledUntil != 0 && r >= cn.stalledUntil {
			if h.armedSites[fail.P2PDrop] == cn.ID {
				fail.Disable(fail.P2PDrop)
				delete(h.armedSites, fail.P2PDrop)
			}
			cn.stalledUntil = 0
		}
		if cn.mpFaultUntil != 0 && r >= cn.mpFaultUntil {
			if h.armedSites[fail.MempoolAdmit] == cn.ID {
				fail.Disable(fail.MempoolAdmit)
				delete(h.armedSites, fail.MempoolAdmit)
			}
			cn.mpFaultUntil = 0
		}
	}
}

// applyFault arms one scheduled fault, retargeting or skipping when the
// cluster state makes it unsafe (someone already down, site already armed).
func (h *harness) applyFault(r int, f fault) {
	switch f.kind {
	case faultCrash:
		if h.anyDownOrPending() {
			return // one crash in flight at a time keeps every block replicated
		}
		cn := h.pickAlive(f.node)
		if cn == nil {
			return
		}
		if _, taken := h.armedSites[f.site]; taken {
			return
		}
		fail.Enable(f.site, fail.Spec{Mode: fail.ModePanic, Tag: cn.ID, Count: 1})
		h.armedSites[f.site] = cn.ID
		cn.pending = &pendingCrash{site: f.site, forceAt: r + crashForceAfter, downFor: f.duration}
		h.journalFault(cn, "crash", string(f.site))
		h.eventf(r, "armed crash failpoint %s@%s", f.site, cn.ID)
	case faultStorage:
		cn := h.pickAlive(f.node)
		if cn == nil {
			return
		}
		if _, taken := h.armedSites[fail.KVApply]; taken {
			return
		}
		fail.Enable(fail.KVApply, fail.Spec{Mode: fail.ModeError, Tag: cn.ID, Count: 1})
		h.armedSites[fail.KVApply] = cn.ID
		h.journalFault(cn, "storage", string(fail.KVApply))
		h.eventf(r, "armed storage error kvstore/apply@%s", cn.ID)
	case faultPartition:
		if h.healAt != 0 {
			return
		}
		cn := h.pickAlive(f.node)
		if cn == nil {
			return
		}
		h.minority = map[string]bool{cn.ID: true}
		h.c.Network().Partition([]string{cn.ID})
		h.healAt = r + f.duration
		h.journalFault(cn, "partition", "")
		h.res.Partitions++
		h.eventf(r, "partitioned %s away for %d rounds", cn.ID, f.duration)
	case faultStall:
		cn := h.pickAlive(f.node)
		if cn == nil {
			return
		}
		if _, taken := h.armedSites[fail.P2PDrop]; taken {
			return
		}
		fail.Enable(fail.P2PDrop, fail.Spec{Mode: fail.ModeDrop, Tag: cn.ID, Prob: 0.8, Count: 20})
		h.armedSites[fail.P2PDrop] = cn.ID
		cn.stalledUntil = r + f.duration
		h.journalFault(cn, "stall", string(fail.P2PDrop))
		h.res.Stalls++
		h.eventf(r, "stalling deliveries to %s for %d rounds", cn.ID, f.duration)
	case faultMempool:
		cn := h.pickAlive(f.node)
		if cn == nil {
			return
		}
		if _, taken := h.armedSites[fail.MempoolAdmit]; taken {
			return
		}
		// Probabilistic admission errors against one miner's pool: some of
		// its fed transactions never enter a block. Convergence must hold
		// anyway — admission shapes block content, never block execution.
		fail.Enable(fail.MempoolAdmit, fail.Spec{Mode: fail.ModeError, Tag: cn.ID, Prob: 0.5, Count: 10})
		h.armedSites[fail.MempoolAdmit] = cn.ID
		cn.mpFaultUntil = r + f.duration
		h.journalFault(cn, "mempool", string(fail.MempoolAdmit))
		h.res.MempoolFaults++
		h.eventf(r, "admission faults at %s for %d rounds", cn.ID, f.duration)
	}
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

func (h *harness) anyDownOrPending() bool {
	for _, cn := range h.nodes {
		if cn.down || cn.pending != nil {
			return true
		}
	}
	return false
}

// guard runs op on a live node, translating an injected crash panic into a
// kill, an injected error into a survived storage fault, and anything else
// into a scenario failure.
func (h *harness) guard(r int, cn *chaosNode, op func() error) {
	if cn.down || h.fail != nil {
		return
	}
	crashed, err := survive(op)
	switch {
	case crashed:
		h.kill(r, cn, "crash failpoint fired")
	case errors.Is(err, fail.ErrInjected):
		h.res.StorageErrors++
		delete(h.armedSites, "kvstore/apply")
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

// kill simulates SIGKILL: the node's in-memory state is abandoned (the
// store is deliberately NOT closed — a crash does not flush), the endpoint
// goes down, and a restart is scheduled.
func (h *harness) kill(r int, cn *chaosNode, why string) {
	downFor := 3
	if cn.pending != nil {
		fail.Disable(cn.pending.site)
		delete(h.armedSites, cn.pending.site)
		downFor = cn.pending.downFor
		cn.pending = nil
	}
	if h.armedSites["kvstore/apply"] == cn.ID {
		// A dead node cannot observe its armed storage error; disarm so the
		// site frees up for later faults.
		fail.Disable("kvstore/apply")
		delete(h.armedSites, "kvstore/apply")
	}
	if h.armedSites[fail.MempoolAdmit] == cn.ID {
		// Likewise its admission faults: the pool died with the miner.
		fail.Disable(fail.MempoolAdmit)
		delete(h.armedSites, fail.MempoolAdmit)
		cn.mpFaultUntil = 0
	}
	cn.down = true
	cn.restartAt = r + downFor
	journal.For(cn.ID).Emit(journal.ChaosKill, 0, journal.FS("why", why))
	h.c.Network().SetDown(cn.ID, true)
	h.c.Crash(cn.Member)
	h.res.CrashRestarts++
	h.eventf(r, "%s crashed (%s), restart at round %d", cn.ID, why, cn.restartAt)
}

// restart reopens a crashed node from its LSM directory. The next agreement
// check compares every root it recovered with the live cluster's: a
// restored root that differs means the crash tore durability.
func (h *harness) restart(r int, cn *chaosNode) {
	if err := h.c.Reopen(cn.Member); err != nil {
		h.failf(r, "restart %s: %v", cn.ID, err)
		return
	}
	h.newSyncer(cn)
	cn.Endpoint.Drain()
	h.c.Network().SetDown(cn.ID, false)
	cn.down = false
	journal.For(cn.ID).Emit(journal.ChaosRestart, cn.Node.NextEpoch())
	h.eventf(r, "%s restarted at epoch %d", cn.ID, cn.Node.NextEpoch())
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

// mine produces this round's blocks. Only fully-caught-up majority-side
// nodes are eligible — the fork-free discipline documented in the package
// comment — and at least two such nodes must be able to HOLD the block so
// no mined block can ever have a single holder. Stalled nodes are excluded
// from that holder count, not just from candidacy: a stalled node's armed
// delivery-drop makes it a holder on paper only, and a sole candidate
// mining into stalled and partitioned peers builds a private lineage that
// it alone persists — which a later crash-replay resurrects against the
// cluster's re-mined history of those heights. That resurrection was the
// seed-3 divergence (ROADMAP item 6; regression-tested in
// TestCrashReplayResurrectionConverges).
func (h *harness) mine(r int) {
	for i := 0; i < blocksPerRound && h.fail == nil; i++ {
		max := h.aliveMax()
		var candidates []*chaosNode
		majority := 0
		for _, cn := range h.nodes {
			if cn.down || h.minority[cn.ID] || cn.stalledUntil != 0 {
				continue
			}
			majority++
			if h.caughtUp(cn, max) {
				candidates = append(candidates, cn)
			}
		}
		if majority < 2 || len(candidates) == 0 {
			return // nobody can safely mine this round; sync will catch up
		}
		cn := candidates[h.rng.Intn(len(candidates))]
		if h.txCursor < len(h.txs) {
			end := h.txCursor + h.cfg.txsPerBlock()
			if end > len(h.txs) {
				end = len(h.txs)
			}
			// Guarded: feeding the pool runs admission and its failpoint,
			// which refuses some of the batch by design (count unchecked).
			batch := h.txs[h.txCursor:end]
			h.guard(r, cn, func() error {
				cn.Miner.AddTxs(batch)
				return nil
			})
			h.txCursor = end
			if cn.down {
				continue
			}
		}
		b, err := cn.Miner.Mine(context.Background())
		if err != nil {
			h.failf(r, "%s mine: %v", cn.ID, err)
			return
		}
		submitted := false
		h.guard(r, cn, func() error {
			if err := cn.Node.SubmitBlock(b); err != nil {
				return err
			}
			submitted = true
			return nil
		})
		if !submitted || cn.down {
			continue // crashed or failed on ingest: the block dies with it
		}
		cn.Endpoint.Broadcast(p2p.Message{Type: p2p.MsgBlock, Block: b})
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

// pump delivers everything in flight before anyone processes
// (cluster.Drain); a scenario failure stops it.
func (h *harness) pump(r int) {
	if h.fail != nil {
		return
	}
	err := h.c.Drain(func(i int, msg p2p.Message) error {
		h.dispatch(r, h.nodes[i], msg)
		if h.fail != nil {
			return errors.New("scenario failed")
		}
		return nil
	})
	if err != nil && h.fail == nil {
		// A message livelock (a sync exchange that never terminates, say):
		// fail with state instead of hanging the harness.
		if dbgHook != nil {
			dbgHook(h)
		}
		h.failf(r, "%v: %s", err, h.describeNodes())
	}
}

// journalFault records an armed fault in the target node's journal —
// chaos/* events are forensic context, tying what the harness did to
// what the node subsequently recorded.
func (h *harness) journalFault(cn *chaosNode, kind, site string) {
	fields := []journal.Field{journal.FS("kind", kind)}
	if site != "" {
		fields = append(fields, journal.FS("site", site))
	}
	journal.For(cn.ID).Emit(journal.ChaosFault, 0, fields...)
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

// process lets every live node fold its ready epochs, then checks the
// harness's core assertion: deterministic processing over an
// eventually-identical block set yields identical roots, so every two live
// nodes recorded the same root for every epoch both processed.
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
// every live node that is behind the live maximum: deadlines expire,
// backoff elapses, rotation and pagination proceed.
func (h *harness) syncStep() {
	h.now = h.now.Add(syncRoundStep)
	max := h.aliveMax()
	for _, cn := range h.nodes {
		if cn.down {
			continue
		}
		if !h.caughtUp(cn, max) {
			cn.syncer.Tick(h.now)
		}
	}
}

// converge is the final phase: disarm everything, heal, restart the dead,
// then drive pump/process/sync until every node holds the same chains and
// the same watermark — or the timeout declares the cluster wedged. The
// last process has then checked every node's every root.
func (h *harness) converge() {
	fail.Reset()
	h.armedSites = make(map[fail.Name]string)
	h.c.Network().Heal()
	h.minority, h.healAt = nil, 0
	r := h.cfg.Rounds
	for _, cn := range h.nodes {
		cn.pending = nil
		cn.stalledUntil = 0
		cn.mpFaultUntil = 0
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
		if time.Now().After(deadline) {
			if dbgHook != nil {
				dbgHook(h)
			}
			h.failf(r, "no convergence: %s", h.describeNodes())
			return
		}
		h.syncStep()
	}

	target := h.nodes[0].Node.NextEpoch()
	if target-1 < minEpochs {
		h.failf(r, "converged after only %d epochs; the scenario proved nothing", target-1)
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
	h.eventf(r, "converged: %d epochs, %d blocks, roots identical on all %d nodes",
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

// failf records the scenario's first failure; later faults and assertions
// are moot once the cluster is known bad.
func (h *harness) failf(r int, format string, args ...any) {
	if h.fail != nil {
		return
	}
	h.fail = &Failure{Seed: h.cfg.Seed, Round: r, Msg: fmt.Sprintf(format, args...)}
	if h.cfg.Verbose != nil {
		fmt.Fprintln(h.cfg.Verbose, "FAIL:", h.fail.Error())
	}
}
