package node

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/dag"
	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// outcomes is one node's nezha_node_lookahead_total, by outcome. Node ids
// repeat across -count and -cpu runs of one process, so tests compare
// differences.
type outcomes struct{ adopted, discarded, none int }

func lookaheadOutcomes(n *Node) outcomes {
	read := func(outcome string) int {
		return int(metrics.Default().Counter("nezha_node_lookahead_total", "",
			metrics.Label{Name: "node", Value: n.id}, metrics.Label{Name: "outcome", Value: outcome}).Value())
	}
	return outcomes{read("adopted"), read("discarded"), read("none")}
}

func (o outcomes) sub(p outcomes) outcomes {
	return outcomes{o.adopted - p.adopted, o.discarded - p.discarded, o.none - p.none}
}

// stagedCommits is one node's nezha_node_lookahead_staged_total.
func stagedCommits(n *Node) int {
	return int(metrics.Default().Counter("nezha_node_lookahead_staged_total", "",
		metrics.Label{Name: "node", Value: n.id}).Value())
}

// lookaheadWaits is one node's nezha_node_lookahead_wait_seconds count by
// stage: execute, schedule, commit.
func lookaheadWaits(n *Node) [3]uint64 {
	var out [3]uint64
	for i, stage := range []string{"execute", "schedule", "commit"} {
		out[i] = metrics.Default().Histogram("nezha_node_lookahead_wait_seconds", "", nil,
			metrics.Label{Name: "node", Value: n.id}, metrics.Label{Name: "stage", Value: stage}).Count()
	}
	return out
}

// scriptedLedger mines a ledger whose every epoch is written out by the
// test: exactly one block per chain, carrying the transactions and the
// state root the test says. Every node of a test is fed the same block
// and transaction OBJECTS, as in-process clusters do.
type scriptedLedger struct {
	t      *testing.T
	params consensus.Params
	src    *dag.Ledger
	epochs [][]*types.Block // epochs[e-1], in mining order
	tick   uint64
}

func newScriptedLedger(t *testing.T, chains int) *scriptedLedger {
	src, err := dag.NewLedger(chains)
	if err != nil {
		t.Fatal(err)
	}
	return &scriptedLedger{t: t, params: consensus.Params{Chains: chains}, src: src}
}

// epoch mines the next epoch: block c lands on chain c, with roots[c] and
// txs[c].
func (l *scriptedLedger) epoch(roots []types.Hash, txs [][]*types.Transaction) {
	l.t.Helper()
	var blocks []*types.Block
	for c := uint32(0); c < uint32(l.params.Chains); c++ {
		for attempt := 0; ; attempt++ {
			if attempt > 1_000 {
				l.t.Fatal("cannot steer a block onto its chain")
			}
			l.tick++
			b, err := consensus.Mine(context.Background(), consensus.Template{
				Ledger: l.src, StateRoot: roots[c], Txs: txs[c],
				Miner: types.AddressFromUint64(7), Time: l.tick, NonceSeed: l.tick << 20,
			}, l.params)
			if err != nil {
				l.t.Fatal(err)
			}
			if b.Header.ChainID != c {
				continue
			}
			if err := l.src.Add(b); err != nil {
				l.t.Fatal(err)
			}
			blocks = append(blocks, b)
			break
		}
	}
	l.epochs = append(l.epochs, blocks)
}

// submit hands epoch e's blocks to the node.
func (l *scriptedLedger) submit(n *Node, e uint64) {
	l.t.Helper()
	if e > uint64(len(l.epochs)) {
		return
	}
	for _, b := range l.epochs[e-1] {
		if err := n.SubmitBlock(b); err != nil {
			l.t.Fatalf("node %s: submit epoch %d: %v", n.id, e, err)
		}
	}
}

// lookaheadScript is the ledger the equivalence tests run: skew-1.0
// SmallBank over eleven epochs, among them every shape the adoption rule
// has to get right.
//
//	3  a call that runs out of gas: an execution failure the run must drop
//	5  a block with an unknown state root: validation discards it, so the
//	   run's composition was wrong and the epoch runs inline
//	6  a transaction object that was already in epoch 5
//	8  no transactions at all: no writes, no new generation
//	9  the epoch after it, whose run started at the unchanged generation
func lookaheadScript(t *testing.T) (*scriptedLedger, []types.WriteEntry) {
	gen, err := workload.NewGenerator(workload.Config{Seed: 41, Accounts: 300, Skew: 1.0, InitialBalance: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	const perBlock, epochs = 60, 11
	txs := gen.Txs(2 * perBlock * epochs)
	genesis, err := gen.GenesisWrites(txs)
	if err != nil {
		t.Fatal(err)
	}
	// Every block carries the genesis root: validation accepts the root of
	// any processed epoch below the block's height, so the whole ledger can
	// be mined before a node has processed anything.
	root := lookaheadNode(t, "genesis-root", 1, genesis, false).StateRoot()
	l := newScriptedLedger(t, 2)
	for e := 1; e <= epochs; e++ {
		cut := txs[2*perBlock*(e-1):]
		blocks := [][]*types.Transaction{cut[:perBlock:perBlock], cut[perBlock : 2*perBlock : 2*perBlock]}
		roots := []types.Hash{root, root}
		switch e {
		case 3:
			blocks[1] = append(blocks[1], &types.Transaction{
				From: cut[0].From, To: cut[0].To, Nonce: 1 << 40, Gas: 1, Payload: cut[0].Payload,
			})
		case 5:
			roots[1] = types.HashBytes([]byte("no epoch ever had this root"))
		case 6:
			blocks[0] = append(blocks[0], txs[2*perBlock*4]) // first of epoch 5, chain 0
		case 8:
			blocks = make([][]*types.Transaction, 2)
		}
		l.epoch(roots, blocks)
	}
	return l, genesis
}

// lookaheadNode builds one node of an equivalence test.
func lookaheadNode(t *testing.T, id string, workers int, genesis []types.WriteEntry, verify bool) *Node {
	cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
	cfg.Workers = workers
	cfg.VerifySchedules = verify
	cfg.GenesisWrites = genesis
	n, err := New(id, kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// sameEpoch compares what two nodes report for one epoch.
func sameEpoch(got, want *EpochResult) error {
	if got.StateRoot != want.StateRoot {
		return fmt.Errorf("epoch %d: root %s, twin %s", got.Epoch, got.StateRoot.Short(), want.StateRoot.Short())
	}
	if !got.Schedule.Equal(want.Schedule) {
		return fmt.Errorf("epoch %d: schedule differs from the twin's", got.Epoch)
	}
	if len(got.Discarded) != len(want.Discarded) || got.Stats.Txs != want.Stats.Txs ||
		got.Stats.ExecutionFailed != want.Stats.ExecutionFailed {
		return fmt.Errorf("epoch %d: %d discarded, %d txs, %d failed; twin %d, %d, %d", got.Epoch,
			len(got.Discarded), got.Stats.Txs, got.Stats.ExecutionFailed,
			len(want.Discarded), want.Stats.Txs, want.Stats.ExecutionFailed)
	}
	if len(got.Stats.Stages) != len(want.Stats.Stages) {
		return fmt.Errorf("epoch %d: %d stages, twin %d", got.Epoch, len(got.Stats.Stages), len(want.Stats.Stages))
	}
	for i, st := range got.Stats.Stages {
		if tw := want.Stats.Stages[i]; st.Name != tw.Name || st.Tasks != tw.Tasks {
			return fmt.Errorf("epoch %d: stage %s reports %d tasks, twin's %s %d", got.Epoch, st.Name, st.Tasks, tw.Name, tw.Tasks)
		}
	}
	return nil
}

// TestLookaheadMatchesInline is the look-ahead's equivalence oracle. One
// ledger goes into three nodes that share its block and transaction
// objects. Two are kept an epoch ahead, so every commit finds the next
// epoch in the ledger and starts a run for it; the third is fed epoch by
// epoch, never has the next epoch at publish time, and runs every stage
// inline. Epoch for epoch the three must report the same root, schedule,
// stage task counts and deterministic journal events, and every adopted
// epoch that moved the root must have committed the batch its run staged —
// a staging step skipped in silence would pass every other check. The
// inline node
// processes epoch e+1 — composing it, numbering the shared transactions,
// discarding epoch 5's bad block — while the others' runs for e+1 are still
// going: under -race that is the witness that a run neither writes a shared
// transaction nor reads an id.
func TestLookaheadMatchesInline(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			journal.Reset()
			journal.Enable()
			defer journal.Disable()
			l, genesis := lookaheadScript(t)
			last := uint64(len(l.epochs))
			ahead := []*Node{
				lookaheadNode(t, "ahead-a", workers, genesis, true),
				lookaheadNode(t, "ahead-b", workers, genesis, false),
			}
			inline := lookaheadNode(t, "inline", workers, genesis, true)
			before := []outcomes{lookaheadOutcomes(ahead[0]), lookaheadOutcomes(ahead[1]), lookaheadOutcomes(inline)}
			inlineStaged := stagedCommits(inline)

			process := func(n *Node, e uint64) *EpochResult {
				res, err := n.ProcessEpoch(e)
				if err != nil {
					t.Fatalf("node %s: epoch %d: %v", n.id, e, err)
				}
				return res
			}
			for _, n := range ahead {
				l.submit(n, 1)
				l.submit(n, 2)
			}
			l.submit(inline, 1)
			want := map[uint64]*EpochResult{1: process(inline, 1)}
			for e := uint64(1); e <= last; e++ {
				var got []*EpochResult
				for _, n := range ahead {
					prev, _ := n.RootAt(e - 1)
					o, st, w := lookaheadOutcomes(n), stagedCommits(n), lookaheadWaits(n)
					res := process(n, e) // starts the run for e+1
					adopted := lookaheadOutcomes(n).sub(o).adopted == 1
					staged := stagedCommits(n) - st
					if adopted && res.StateRoot != prev && staged != 1 || !adopted && staged != 0 {
						t.Fatalf("node %s: epoch %d (adopted %v, root moved %v) committed %d staged batches",
							n.id, e, adopted, res.StateRoot != prev, staged)
					}
					// Each stage of an adopting epoch waits on the run once.
					waited, now := [3]uint64{}, lookaheadWaits(n)
					for i := range now {
						waited[i] = now[i] - w[i]
					}
					if adopted && waited != [3]uint64{1, 1, 1} || !adopted && waited != [3]uint64{} {
						t.Fatalf("node %s: epoch %d (adopted %v) observed look-ahead waits %v", n.id, e, adopted, waited)
					}
					got = append(got, res)
				}
				if e < last {
					l.submit(inline, e+1)
					want[e+1] = process(inline, e+1) // beside the runs for e+1
				}
				for i, n := range ahead {
					l.submit(n, e+2)
					if err := sameEpoch(got[i], want[e]); err != nil {
						t.Fatalf("node %s: %v", n.id, err)
					}
				}
			}

			if want[3].Stats.ExecutionFailed != 1 || len(want[5].Discarded) != 1 || want[8].Stats.Txs != 0 {
				t.Fatalf("the script lost its shapes: %d failed in epoch 3, %d discarded in epoch 5, %d txs in epoch 8",
					want[3].Stats.ExecutionFailed, len(want[5].Discarded), want[8].Stats.Txs)
			}
			if want[7].StateRoot != want[8].StateRoot || want[8].StateRoot == want[9].StateRoot {
				t.Fatalf("epoch 8 was meant to be empty between two that are not: roots %s %s %s",
					want[7].StateRoot.Short(), want[8].StateRoot.Short(), want[9].StateRoot.Short())
			}
			// Epoch 1 had nothing before it and epoch 5's run assumed a block
			// validation discarded; every other epoch adopts.
			for i, n := range ahead {
				if got := lookaheadOutcomes(n).sub(before[i]); got != (outcomes{adopted: int(last) - 2, discarded: 1, none: 1}) {
					t.Fatalf("node %s: look-ahead outcomes %+v over %d epochs", n.id, got, last)
				}
				if d := journal.Diff(n.jr.Snapshot(), inline.jr.Snapshot()); d != nil {
					t.Fatalf("node %s: journal diverges from the inline twin's:\n%s", n.id, d)
				}
			}
			if got := lookaheadOutcomes(inline).sub(before[2]); got != (outcomes{none: int(last)}) {
				t.Fatalf("the inline twin saw look-ahead runs: %+v", got)
			}
			if got := stagedCommits(inline) - inlineStaged; got != 0 {
				t.Fatalf("the inline twin committed %d staged batches", got)
			}
		})
	}
}

// pendingRun waits for the node's pending look-ahead run to finish and
// returns it.
func pendingRun(t *testing.T, n *Node) *lookahead {
	t.Helper()
	n.mu.Lock()
	la := n.ahead
	n.mu.Unlock()
	if la == nil {
		t.Fatalf("node %s has no pending look-ahead run", n.id)
	}
	<-la.done
	return la
}

// TestLookaheadOracleBites proves the two checks on an adopted run can
// fail. A run that read one stale value — planted here between the run's
// schedule and its stage, the read and the write computed from it, so the
// staged batch carries the damage — is adopted, since nothing about its
// label is wrong; the twin comparison must then see a different root, and a
// node that verifies schedules must refuse the epoch, unstage the run's
// batch and reach the twin's result when it retries the epoch inline. The
// same damage is then done the two ways the adoption rule exists to stop: a
// run that read a state the node is no longer at, and a run over part of
// the epoch's blocks, both labelled honestly. Those must be discarded and
// the epoch must match the twin — which is exactly what fails if adoption
// skips its generation or block-list check.
func TestLookaheadOracleBites(t *testing.T) {
	l, genesis := lookaheadScript(t)
	const upTo = 2 // epochs processed before the plant; the plant hits epoch 3
	twin := lookaheadNode(t, "bites-twin", 2, genesis, true)
	var want *EpochResult
	for e := uint64(1); e <= upTo+1; e++ {
		l.submit(twin, e)
		res, err := twin.ProcessEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		want = res
	}
	// ready returns a node that has processed upTo epochs and holds a
	// pending run for the next.
	ready := func(id string, verify bool) *Node {
		n := lookaheadNode(t, id, 2, genesis, verify)
		for e := uint64(1); e <= upTo+1; e++ {
			l.submit(n, e)
		}
		for e := uint64(1); e <= upTo; e++ {
			if _, err := n.ProcessEpoch(e); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	// restart swaps the node's pending run for one the test prepared, on
	// the given state.
	restart := func(n *Node, state *mvcc.View, prepare func(*lookahead)) {
		n.mu.Lock()
		defer n.mu.Unlock()
		if state == nil {
			state = n.ahead.view
		}
		n.dropLookahead()
		la := n.nextLookahead(upTo + 1)
		prepare(la)
		n.startLookahead(la, state)
	}
	// plant restarts the node's pending run with a stale read planted
	// before it stages; the returned flag says, once the epoch has waited
	// for the run's schedule, whether there was a transaction to plant in.
	plant := func(n *Node) *bool {
		planted := new(bool)
		restart(n, nil, func(la *lookahead) {
			la.beforeStage = func(la *lookahead) {
				for _, sim := range la.exec.sims {
					if la.sched.IsCommitted(sim.Tx.ID) && len(sim.Reads) > 0 && len(sim.Writes) > 0 {
						sim.Reads[0].Value = append([]byte{0x5a}, sim.Reads[0].Value...)
						sim.Writes[0].Value = append([]byte{0x5a}, sim.Writes[0].Value...)
						*planted = true
						return
					}
				}
			}
		})
		return planted
	}

	t.Run("twin comparison", func(t *testing.T) {
		n := ready("bites-trusting", false)
		planted := plant(n)
		before := lookaheadOutcomes(n)
		res, err := n.ProcessEpoch(upTo + 1)
		if err != nil {
			t.Fatal(err)
		}
		if !*planted {
			t.Fatal("the pending run committed nothing that reads and writes")
		}
		if got := lookaheadOutcomes(n).sub(before); got.adopted != 1 {
			t.Fatalf("the planted run was not adopted: %+v", got)
		}
		if err := sameEpoch(res, want); err == nil || !strings.Contains(err.Error(), "root") {
			t.Fatalf("a stale read in an adopted run goes unnoticed by the twin comparison: %v", err)
		}
	})
	t.Run("schedule verification", func(t *testing.T) {
		n := ready("bites-verifying", true)
		planted := plant(n)
		if _, err := n.ProcessEpoch(upTo + 1); err == nil || !strings.Contains(err.Error(), "unsound") {
			t.Fatalf("a stale read in an adopted run passes VerifySchedules: %v", err)
		}
		if !*planted {
			t.Fatal("the pending run committed nothing that reads and writes")
		}
		// The refused epoch unstaged the planted batch; the retry has no
		// run to adopt and must not find it either.
		before := lookaheadOutcomes(n)
		res, err := n.ProcessEpoch(upTo + 1)
		if err != nil {
			t.Fatalf("the inline retry of the refused epoch: %v", err)
		}
		if err := sameEpoch(res, want); err != nil {
			t.Fatalf("the inline retry of the refused epoch: %v", err)
		}
		if got := lookaheadOutcomes(n).sub(before); got != (outcomes{none: 1}) {
			t.Fatalf("the retry of the refused epoch found a run: %+v", got)
		}
	})
	mustDiscard := func(t *testing.T, n *Node) {
		before := lookaheadOutcomes(n)
		res, err := n.ProcessEpoch(upTo + 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameEpoch(res, want); err != nil {
			t.Fatalf("a run on the wrong premise reached the epoch's result: %v", err)
		}
		if got := lookaheadOutcomes(n).sub(before); got != (outcomes{discarded: 1}) {
			t.Fatalf("a run on the wrong premise was not discarded: %+v", got)
		}
	}
	t.Run("generation check", func(t *testing.T) {
		n := lookaheadNode(t, "bites-generation", 2, genesis, false)
		for e := uint64(1); e <= upTo+1; e++ {
			l.submit(n, e)
		}
		var stale *lookahead
		for e := uint64(1); e <= upTo; e++ {
			if e == upTo {
				stale = pendingRun(t, n) // read the state before epoch upTo
			}
			if _, err := n.ProcessEpoch(e); err != nil {
				t.Fatal(err)
			}
		}
		restart(n, stale.view, func(*lookahead) {})
		mustDiscard(t, n)
	})
	t.Run("block-list check", func(t *testing.T) {
		n := ready("bites-blocks", false)
		restart(n, nil, func(la *lookahead) { la.blocks = la.blocks[:1] })
		mustDiscard(t, n)
	})
}
