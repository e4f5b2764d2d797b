package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/types"
	wl "github.com/nezha-dag/nezha/internal/workload"
)

// Fixed across workloads: the paper's SmallBank population (§VI-A) and its
// 200-transaction blocks.
const (
	accounts       = 10_000
	initialBalance = 10_000
	blockSize      = 200
)

// referenceSeconds is the --seconds value the segment sizes below are
// written for; other values scale them linearly, so a run always does a
// fixed amount of work for a given --seconds, never a fixed duration.
const referenceSeconds = 20

// workload is one benchmark input mix. Every field is an input property the
// system's behaviour depends on; README.md records why each was chosen.
type workload struct {
	Name string
	Why  string

	Skew          float64
	ReadOnlyRatio float64 // negative keeps the paper's uniform six-op mix
	Chains        int     // ω: blocks per epoch
	Signed        bool    // Ed25519-signed, verified at admission and in the node
	Durable       bool    // LSM store on disk, Persist on, reopen check at the end

	// ClosedEpochs is the closed-loop segment length and PacedSeconds the
	// open-loop segment duration of one trial, both at referenceSeconds.
	ClosedEpochs int
	PacedSeconds float64
	// PacedTPS is the open-loop offered rate, about half of what the
	// closed loop sustains on the reference box.
	PacedTPS int
}

var workloads = []workload{
	{
		Name: "smallbank_uniform",
		Why:  "low contention: group commit into the MPT and MiniVM execution dominate, sorting is idle - mpt/statedb/vm gains show here, core gains do not",
		Skew: 0.2, ReadOnlyRatio: -1, Chains: 4,
		ClosedEpochs: 130, PacedSeconds: 4, PacedTPS: 12_000,
	},
	{
		Name: "smallbank_hot",
		Why:  "hot keys, 1600-tx epochs: core transaction sorting dominates with about half the transactions aborted - core gains show here, commit-path gains do not",
		Skew: 1.0, ReadOnlyRatio: -1, Chains: 8,
		ClosedEpochs: 100, PacedSeconds: 2.5, PacedTPS: 10_000,
	},
	{
		Name: "smallbank_readmostly",
		Why:  "90% GetBalance: tiny write sets, MVCC view reads and fixed per-tx costs (mempool, consensus, dag, node bookkeeping) dominate - a commit gain bought with slower reads shows here",
		Skew: 0.6, ReadOnlyRatio: 0.9, Chains: 4,
		ClosedEpochs: 210, PacedSeconds: 4, PacedTPS: 25_000,
	},
	{
		Name: "smallbank_signed_durable",
		Why:  "Ed25519 verification at admission and validation, LSM WAL/flush/compaction, node persist and block rlp: the only workload that touches crypto and disk, and it carries the reopen check",
		Skew: 0.2, ReadOnlyRatio: -1, Chains: 4, Signed: true, Durable: true,
		// The memtable fills and flushes every 35 epochs (36, 71, 106, 141),
		// each stall longer than the last (0.2, 0.4, 0.9 s). With 110 closed
		// epochs all of the first three land in the closed segment and none
		// in the 15 paced epochs; at 100 the third landed among them and
		// commit_p95_ms read 640-840 ms instead of 428.
		ClosedEpochs: 110, PacedSeconds: 3, PacedTPS: 4_000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) epochTxs() int { return w.Chains * blockSize }

// sizing is how much work one run does; derived from --seconds, or set
// directly by the smoke test.
type sizing struct {
	Trials       int // independent trials per measured run; metrics are their medians
	ClosedEpochs int // per trial
	WarmupEpochs int // leading closed-loop epochs left out of every metric
	PacedEpochs  int // per trial
	TwinEpochs   int // closed-loop epochs replayed into the verifying twin
	TraceEpochs  int // closed-loop epochs replayed by the traced run
	// TracePacedEpochs is the traced run's short paced segment, there for
	// the generator-lateness diagnostic.
	TracePacedEpochs int
}

func (w *workload) sizeFor(seconds int) sizing {
	scale := float64(seconds) / referenceSeconds
	s := sizing{
		Trials: 3,
		// Warm-up is 8 000 transactions on every workload.
		WarmupEpochs: 8_000 / w.epochTxs(),
		ClosedEpochs: int(float64(w.ClosedEpochs)*scale + 0.5),
		PacedEpochs:  int(w.PacedSeconds*scale*float64(w.PacedTPS)/float64(w.epochTxs()) + 0.5),
		// The traced run replays the same number of transactions on every
		// workload: 120 epochs at ω = 4.
		TraceEpochs:      int(120*scale*4/float64(w.Chains) + 0.5),
		TracePacedEpochs: int(2*scale*float64(w.PacedTPS)/float64(w.epochTxs()) + 0.5),
	}
	// Below these floors the percentiles have too few samples to mean
	// anything; a short --seconds still runs, it just measures more than
	// it was asked to.
	s.ClosedEpochs = max(s.ClosedEpochs, s.WarmupEpochs+25)
	s.PacedEpochs = max(s.PacedEpochs, 10)
	s.TraceEpochs = max(s.TraceEpochs, s.WarmupEpochs+25)
	s.TracePacedEpochs = max(s.TracePacedEpochs, 5)
	s.TwinEpochs = max(s.ClosedEpochs/10, 20)
	return s
}

// inputs is everything the program receives: the pre-generated transaction
// stream and the genesis state. Nothing else is derived from the seed.
type inputs struct {
	txs     []*types.Transaction
	genesis []types.WriteEntry
}

func (w *workload) generate(seed int64, n int) (*inputs, error) {
	gen, err := wl.NewGenerator(wl.Config{
		Seed:            seed,
		Accounts:        accounts,
		Skew:            w.Skew,
		InitialBalance:  initialBalance,
		ReadOnlyRatio:   w.ReadOnlyRatio,
		PerSenderNonces: true,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{txs: gen.Txs(n), genesis: gen.GenesisAll()}
	if w.Signed {
		signAll(in.txs)
	}
	return in, nil
}

// system is one node under test with the admission pool in front of it.
type system struct {
	w     *workload
	dir   string // LSM directory; empty for the memory store
	store kvstore.Store
	node  *node.Node
	pool  *mempool.Pool
}

func predictReads(tx *types.Transaction) []types.Key { return smallbank.PredictCall(tx.Payload) }

func (w *workload) nodeConfig(genesis []types.WriteEntry) node.Config {
	return node.Config{
		Consensus:        consensus.Params{Chains: w.Chains, DifficultyBits: 0},
		Scheduler:        core.MustNewScheduler(core.DefaultConfig()),
		Contracts:        map[types.Address][]byte{smallbank.ContractAddress: smallbank.Program()},
		GenesisWrites:    genesis,
		VerifySignatures: w.Signed,
		Persist:          w.Durable,
		PredictReads:     predictReads,
	}
}

// openStore opens the workload's store kind; dir is used only by durable
// workloads.
func (w *workload) openStore(dir string) (kvstore.Store, error) {
	if !w.Durable {
		return kvstore.NewMemory(), nil
	}
	return kvstore.OpenLSM(dir, kvstore.DefaultLSMOptions())
}

// newSystem builds the node and pool over a fresh store. tmp is the parent
// of the LSM directory; wrap, when non-nil, decorates the store (the traced
// run counts and times store calls through it).
func (w *workload) newSystem(in *inputs, tmp string, wrap func(kvstore.Store) kvstore.Store) (*system, error) {
	s := &system{w: w}
	if err := s.openFresh(tmp); err != nil {
		return nil, err
	}
	if wrap != nil {
		s.store = wrap(s.store)
	}
	var err error
	s.node, err = node.New(w.Name, s.store, w.nodeConfig(in.genesis))
	if err != nil {
		s.close()
		return nil, err
	}
	s.pool = mempool.New(mempool.Config{
		StrictNonce:      true,
		ShardCap:         -1,
		SenderCap:        -1,
		VerifySignatures: w.Signed,
		Tag:              w.Name,
	})
	return s, nil
}

// openFresh opens an empty store of the workload's kind, for durable
// workloads in a new directory under tmp.
func (s *system) openFresh(tmp string) error {
	if s.w.Durable {
		dir, err := os.MkdirTemp(tmp, "lsm-")
		if err != nil {
			return err
		}
		s.dir = dir
	}
	store, err := s.w.openStore(s.dir)
	if err != nil {
		return err
	}
	s.store = store
	return nil
}

// close releases the store and removes its directory. The error matters
// only to the reopen check, which closes the store itself.
func (s *system) close() {
	if s.store != nil {
		_ = s.store.Close() // best-effort teardown; the reopen check closes and checks explicitly
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // scratch directory under out/, removed again when the run ends
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
