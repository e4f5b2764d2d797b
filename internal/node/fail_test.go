package node

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// Crash-mid-persist coverage: panic failpoints fire inside the persist path
// at every interesting site — before anything is written, mid-WAL-batch,
// and after the batch is durable — and each time the reopened node must
// come back with watermark, state root, and ledger agreeing with each
// other, then keep processing. persistEpochLocked's commit-point ordering
// (meta record last) is exactly what these tests exercise.

// persistCrashNode opens a persistent node over dir whose store carries the
// failpoint tag "crashnode".
func persistCrashNode(t *testing.T, dir string) (*Node, kvstore.Store, *workload.Generator) {
	t.Helper()
	opts := kvstore.DefaultLSMOptions()
	opts.FailTag = "crashnode"
	store, err := kvstore.OpenLSM(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 13, Accounts: 200, Skew: 0.3, InitialBalance: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
	cfg.Persist = true
	if cfg.GenesisWrites, err = gen.GenesisWrites(gen.Txs(400)); err != nil {
		t.Fatal(err)
	}
	n, err := New("crashnode", store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, store, gen
}

// growUntilCrash mines and submits blocks until a fail.Crash panic escapes
// (returning true) or the node reaches `epochs` epochs (returning false).
func growUntilCrash(t *testing.T, n *Node, gen *workload.Generator, epochs uint64) (crashed bool) {
	t.Helper()
	miner := NewMiner(n, types.AddressFromUint64(1), 100)
	preload(t, miner, gen.Txs(400))
	defer func() {
		if r := recover(); r != nil {
			if !fail.IsCrash(r) {
				panic(r)
			}
			crashed = true
		}
	}()
	ctx := context.Background()
	for i := 0; n.NextEpoch() <= epochs; i++ {
		if i > 10_000 {
			t.Fatal("epochs refuse to complete")
		}
		b, err := miner.Mine(ctx)
		if err != nil {
			t.Fatalf("mine: %v", err)
		}
		if err := n.SubmitBlock(b); err != nil && !isStale(err) {
			t.Fatalf("submit: %v", err)
		}
		if _, err := n.ProcessReadyEpochs(); err != nil {
			t.Fatalf("process: %v", err)
		}
	}
	return false
}

// assertRecovered reopens the store and checks the restored node is
// self-consistent: the watermark's root is the live root, the ledger
// replayed to the watermark, and the node still processes new epochs.
func assertRecovered(t *testing.T, dir string, minEpoch uint64) {
	t.Helper()
	n, store, gen := persistCrashNode(t, dir)
	defer store.Close()
	e := n.NextEpoch()
	if e < minEpoch {
		t.Fatalf("recovered at epoch %d, want >= %d", e, minEpoch)
	}
	n.mu.Lock()
	want, ok := n.roots[e-1]
	n.mu.Unlock()
	if !ok {
		t.Fatalf("no persisted root for watermark epoch %d", e-1)
	}
	if n.StateRoot() != want {
		t.Fatalf("live root %s != persisted root %s for epoch %d",
			n.StateRoot().Short(), want.Short(), e-1)
	}
	for c := uint32(0); c < 2; c++ {
		if n.Ledger().Height(c) < e-1 {
			t.Fatalf("chain %d replayed to height %d, watermark %d",
				c, n.Ledger().Height(c), e-1)
		}
	}
	// And the node is not wedged: it keeps processing.
	if crashed := growUntilCrash(t, n, gen, e+1); crashed {
		t.Fatal("crash failpoint still armed during recovery run")
	}
	if n.NextEpoch() <= e {
		t.Fatal("recovered node did not progress")
	}
}

// TestCrashBeforePersist: the process dies before the epoch's batch is
// built. The store must still hold the PREVIOUS epoch intact.
func TestCrashBeforePersist(t *testing.T) {
	defer fail.Reset()
	dir := t.TempDir()
	n, store, gen := persistCrashNode(t, dir)

	// Let two epochs persist cleanly, then crash at the third's persist.
	fail.Enable("node/persist", fail.Spec{Mode: fail.ModePanic, Tag: "crashnode", After: 2})
	if !growUntilCrash(t, n, gen, 6) {
		t.Fatal("crash failpoint never fired")
	}
	fail.Reset()
	store.Close()
	assertRecovered(t, dir, 3)
}

// TestCrashMidPersistBatch: the process dies inside the WAL append of the
// persist batch — the torn tail must replay to a consistent prefix, and
// the commit-point ordering (meta last) keeps watermark and blocks in
// agreement.
func TestCrashMidPersistBatch(t *testing.T) {
	defer fail.Reset()
	dir := t.TempDir()
	n, store, gen := persistCrashNode(t, dir)

	// Each persist batch writes k block records + meta; crash after a few
	// appends so the tear lands inside a batch.
	fail.Enable("kvstore/wal-append", fail.Spec{Mode: fail.ModePanic, Tag: "crashnode", After: 12})
	if !growUntilCrash(t, n, gen, 8) {
		t.Fatal("crash failpoint never fired")
	}
	fail.Reset()
	// Abandon store without Close — a crash does not flush.
	_ = store
	assertRecovered(t, dir, 1)
}

// TestCrashAfterPersistDone: the process dies after the batch is durable;
// the restarted node must land on the NEW watermark, not the old one.
func TestCrashAfterPersistDone(t *testing.T) {
	defer fail.Reset()
	dir := t.TempDir()
	n, store, gen := persistCrashNode(t, dir)

	fail.Enable("node/persist-done", fail.Spec{Mode: fail.ModePanic, Tag: "crashnode", After: 2})
	if !growUntilCrash(t, n, gen, 6) {
		t.Fatal("crash failpoint never fired")
	}
	crashEpoch := n.NextEpoch() // includes the epoch whose persist completed
	fail.Reset()
	store.Close()
	assertRecovered(t, dir, crashEpoch)
}

// TestPersistFailureHealsBeforeNextEpoch: a TRANSIENT storage error during
// the durability write must not leave a permanent hole in the persisted
// epoch sequence. The in-memory commit cannot be rolled back (the state
// trie already advanced), so the node owes the store that epoch and must
// flush it before processing anything further — otherwise a later epoch's
// metadata records a watermark whose blocks were never stored and restart
// fails with "missing persisted block".
func TestPersistFailureHealsBeforeNextEpoch(t *testing.T) {
	defer fail.Reset()
	dir := t.TempDir()
	n, store, gen := persistCrashNode(t, dir)

	// Epoch 1 persists cleanly; epoch 2's persist fails exactly once.
	fail.Enable("node/persist", fail.Spec{
		Mode: fail.ModeError, Tag: "crashnode", After: 1, Count: 1,
	})
	miner := NewMiner(n, types.AddressFromUint64(1), 100)
	preload(t, miner, gen.Txs(400))
	ctx := context.Background()
	injected := false
	for i := 0; n.NextEpoch() <= 3; i++ {
		if i > 10_000 {
			t.Fatal("epochs refuse to complete")
		}
		b, err := miner.Mine(ctx)
		if err != nil {
			t.Fatalf("mine: %v", err)
		}
		if err := n.SubmitBlock(b); err != nil && !isStale(err) {
			t.Fatalf("submit: %v", err)
		}
		if _, err := n.ProcessReadyEpochs(); err != nil {
			if !errors.Is(err, fail.ErrInjected) {
				t.Fatalf("process: %v", err)
			}
			injected = true
		}
	}
	if !injected {
		t.Fatal("persist failpoint never fired")
	}
	final := n.NextEpoch()
	fail.Reset()
	store.Close()
	// Every epoch up to the in-memory watermark must be on disk — the owed
	// epoch was re-persisted before its successors, leaving no hole.
	assertRecovered(t, dir, final)
}

// TestSubmitBlockFailpoint: an injected ingest error surfaces to the
// caller and leaves the ledger unchanged; disabling restores service.
func TestSubmitBlockFailpoint(t *testing.T) {
	defer fail.Reset()
	cfg := testConfig(1, core.MustNewScheduler(core.DefaultConfig()))
	n, err := New("x", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(1), 10)
	b, err := miner.Mine(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	fail.Enable("node/submit", fail.Spec{Mode: fail.ModeError, Tag: "x"})
	if err := n.SubmitBlock(b); err == nil {
		t.Fatal("armed failpoint let the block through")
	}
	if n.Ledger().Height(0) != 0 {
		t.Fatal("rejected block reached the ledger")
	}
	fail.Disable("node/submit")
	if err := n.SubmitBlock(b); err != nil {
		t.Fatal(err)
	}
	if n.Ledger().Height(0) != 1 {
		t.Fatal("block not added after disable")
	}
}

// TestStageHandoffFailpoint: an injected stage-handoff error aborts the
// epoch cleanly — the node's watermark does not advance and a retry after
// disable succeeds (the pipeline mutates nothing before its first stage).
func TestStageHandoffFailpoint(t *testing.T) {
	defer fail.Reset()
	cfg := testConfig(1, core.MustNewScheduler(core.DefaultConfig()))
	n, err := New("x", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(1), 10)
	b, err := miner.Mine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitBlock(b); err != nil {
		t.Fatal(err)
	}

	fail.Enable("node/stage-validate", fail.Spec{Mode: fail.ModeError, Tag: "x"})
	if _, err := n.ProcessEpoch(1); err == nil {
		t.Fatal("armed handoff failpoint did not abort the epoch")
	}
	if n.NextEpoch() != 1 {
		t.Fatalf("aborted epoch advanced the watermark to %d", n.NextEpoch())
	}
	fail.Disable("node/stage-validate")
	if _, err := n.ProcessEpoch(1); err != nil {
		t.Fatalf("retry after disable: %v", err)
	}
	if n.NextEpoch() != 2 {
		t.Fatal("retried epoch did not commit")
	}
}

// TestRefusedSealDiscardsLookahead: a commit refused between publish and
// seal (node/stage-seal as an error) has by then started the next epoch's
// look-ahead run on versions that are about to be rolled back, and holds
// the batch its own run staged in the trie. The node must unwind all of it
// — versions gone, staged batch rolled back, the run stopped, waited for
// and dropped, the version cache structurally sound — and the retried
// epoch and the one after it, which now has no run to adopt, must reach the
// roots of a twin whose seal was never refused. The retry commits a
// different composition (one of the epoch's two blocks), so a trie still
// holding the refused batch would show in its root: retrying the same
// writes would re-apply them over it and hide it.
func TestRefusedSealDiscardsLookahead(t *testing.T) {
	defer fail.Reset()
	l, genesis := lookaheadScript(t)
	n := lookaheadNode(t, "refused-seal", 2, genesis, true)
	twin := lookaheadNode(t, "refused-seal-twin", 2, genesis, true)
	for e := uint64(1); e <= 4; e++ {
		l.submit(n, e)
		l.submit(twin, e)
	}
	if _, err := n.ProcessEpoch(1); err != nil {
		t.Fatal(err)
	}
	root, stats := n.StateRoot(), func() (versions uint64) {
		s, _ := n.State().MVCCStats()
		return s.Versions
	}
	versions := stats()
	before := lookaheadOutcomes(n)
	run := pendingRun(t, n)
	if !run.staged.Staged || len(run.batch) == 0 {
		t.Fatalf("the run for epoch 2 staged nothing (%d writes)", len(run.batch))
	}
	written := run.batch[0].Key
	old, err := n.State().Get(written)
	if err != nil {
		t.Fatal(err)
	}

	fail.Enable("node/stage-seal", fail.Spec{Mode: fail.ModeError, Tag: "refused-seal", Count: 1})
	if _, err := n.ProcessEpoch(2); !errors.Is(err, fail.ErrInjected) {
		t.Fatalf("epoch 2 over a refused seal: %v", err)
	}
	if n.ahead != nil {
		t.Fatal("the refused epoch left its look-ahead run pending")
	}
	// Epoch 2 itself adopted the run epoch 1 started; the one it started for
	// epoch 3 is the discarded one.
	if got := lookaheadOutcomes(n).sub(before); got != (outcomes{adopted: 1, discarded: 1}) {
		t.Fatalf("look-ahead outcomes across the refused seal: %+v", got)
	}
	if n.StateRoot() != root || n.NextEpoch() != 2 || stats() != versions {
		t.Fatalf("the refused seal moved the node: root %s (was %s), next epoch %d, %d live versions (were %d)",
			n.StateRoot().Short(), root.Short(), n.NextEpoch(), stats(), versions)
	}
	for _, r := range []statedb.Reader{n.State(), n.State().View()} {
		if v, err := r.Get(written); err != nil || !bytes.Equal(v, old) {
			t.Fatalf("%T reads %x, %v for a key the refused epoch wrote; its value before was %x", r, v, err, old)
		}
	}
	if err := n.State().CheckInvariants(); err != nil {
		t.Fatalf("version cache after the rollback: %v", err)
	}

	for e := uint64(1); e <= 4; e++ {
		var want, got *EpochResult
		var err error
		switch e {
		case 1:
			_, err = twin.ProcessEpoch(e)
		case 2:
			// One block of the two: different writes than the refused batch.
			if want, err = twin.ProcessAssembledEpoch(l.epochs[1][:1]); err == nil {
				got, err = n.ProcessAssembledEpoch(l.epochs[1][:1])
			}
		default:
			if want, err = twin.ProcessEpoch(e); err == nil {
				got, err = n.ProcessEpoch(e)
			}
		}
		if err != nil {
			t.Fatalf("epoch %d after the refused seal: %v", e, err)
		}
		if got == nil {
			continue
		}
		if err := sameEpoch(got, want); err != nil {
			t.Fatal(err)
		}
	}
	// The retry of epoch 2 found no run; 3 and 4 adopt again.
	if got := lookaheadOutcomes(n).sub(before); got != (outcomes{adopted: 3, discarded: 1, none: 1}) {
		t.Fatalf("look-ahead outcomes after the retry: %+v", got)
	}
	if err := n.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
