package node

import (
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/p2p"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// syncTestNodes builds a veteran with a few epochs of history and a fresh
// joiner sharing its genesis, both attached to a network.
func syncTestNodes(t *testing.T, syncBatch int) (veteran, joiner *Node, vetEp, joinEp *p2p.Endpoint, net *p2p.Network) {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 11, Accounts: 300, Skew: 0.5, InitialBalance: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(600)
	genesis, err := gen.GenesisWrites(txs)
	if err != nil {
		t.Fatal(err)
	}

	build := func(id string) *Node {
		cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
		cfg.GenesisWrites = genesis
		cfg.SyncBatch = syncBatch
		n, err := New(id, kvstore.NewMemory(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	veteran = build("veteran")
	miner := NewMiner(veteran, types.AddressFromUint64(1), 100)
	preload(t, miner, txs)
	growEpochs(t, veteran, []*Miner{miner}, 3)

	net = p2p.NewNetwork(p2p.Config{QueueLen: 64})
	t.Cleanup(net.Close)
	vetEp, err = net.Join("veteran")
	if err != nil {
		t.Fatal(err)
	}
	joiner = build("joiner")
	joinEp, err = net.Join("joiner")
	if err != nil {
		t.Fatal(err)
	}
	return veteran, joiner, vetEp, joinEp, net
}

// TestSyncBatchCapAndPagination forces a tiny response cap and checks that
// the joiner still reaches the veteran's state by paging: several MsgBlocks
// responses, the truncated ones flagged More, each next request from the
// advanced MinHeight.
func TestSyncBatchCapAndPagination(t *testing.T) {
	veteran, joiner, vetEp, joinEp, _ := syncTestNodes(t, 3)

	sync := NewSyncer(joiner, joinEp, []string{"veteran"}, SyncConfig{})
	if !sync.Kick(time.Now()) {
		t.Fatal("initial kick did not send")
	}

	total := len(veteran.Ledger().SyncBlocksAbove(0))
	pages, truncated := 0, 0
	var lastReq uint64
	deadline := time.After(10 * time.Second)
	for joiner.MinHeight() < veteran.MinHeight() {
		select {
		case msg := <-vetEp.Inbox():
			if msg.Type != p2p.MsgGetBlocks {
				t.Fatalf("veteran received %v", msg.Type)
			}
			if pages > 0 && msg.Height <= lastReq {
				t.Fatalf("page %d re-requested from %d, cursor did not advance past %d",
					pages, msg.Height, lastReq)
			}
			lastReq = msg.Height
			veteran.HandleSyncRequest(vetEp, msg)
		case msg := <-joinEp.Inbox():
			if msg.Type != p2p.MsgBlocks {
				continue
			}
			pages++
			if len(msg.Blocks) >= total {
				t.Fatalf("one response carried all %d blocks despite cap 3", total)
			}
			if msg.UpTo != msg.Blocks[len(msg.Blocks)-1].Header.Height {
				t.Fatalf("UpTo=%d but last block height=%d", msg.UpTo,
					msg.Blocks[len(msg.Blocks)-1].Header.Height)
			}
			if msg.More {
				truncated++
			}
			if _, err := sync.HandleBlocks(time.Now(), msg); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("paging stalled: joiner height %d < veteran %d after %d pages",
				joiner.MinHeight(), veteran.MinHeight(), pages)
		}
	}
	if pages < 2 || truncated == 0 {
		t.Fatalf("expected multiple pages with More set; pages=%d truncated=%d", pages, truncated)
	}

	if _, err := joiner.ProcessReadyEpochs(); err != nil {
		t.Fatal(err)
	}
	if joiner.NextEpoch() != veteran.NextEpoch() || joiner.StateRoot() != veteran.StateRoot() {
		t.Fatalf("joiner epoch %d root %s, veteran epoch %d root %s",
			joiner.NextEpoch(), joiner.StateRoot().Short(),
			veteran.NextEpoch(), veteran.StateRoot().Short())
	}
}

// TestSyncerTimeoutRotatesPeers sends the first request to a peer that never
// answers; after the deadline plus backoff the syncer must demote nothing
// yet (one failure) but rotate to the second peer.
func TestSyncerTimeoutRotatesPeers(t *testing.T) {
	_, joiner, _, joinEp, net := syncTestNodes(t, 0)
	if _, err := net.Join("dead"); err != nil {
		t.Fatal(err)
	}

	cfg := SyncConfig{RequestTimeout: 50 * time.Millisecond, BackoffBase: 10 * time.Millisecond}
	sync := NewSyncer(joiner, joinEp, []string{"dead", "veteran"}, cfg)

	base := time.Now()
	if !sync.Kick(base) {
		t.Fatal("kick did not send")
	}
	if sync.Peer() != "dead" {
		t.Fatalf("first request went to %q", sync.Peer())
	}
	// Before the deadline nothing changes.
	sync.Tick(base.Add(20 * time.Millisecond))
	if sync.Peer() != "dead" {
		t.Fatal("request abandoned before deadline")
	}
	// Past the deadline: failure recorded, backoff blocks an instant retry.
	sync.Tick(base.Add(60 * time.Millisecond))
	if sync.Inflight() {
		t.Fatal("request survived its deadline")
	}
	// Past the backoff (10ms ± 20%): rotation reaches the live peer.
	sync.Tick(base.Add(100 * time.Millisecond))
	if sync.Peer() != "veteran" {
		t.Fatalf("rotation picked %q, want veteran", sync.Peer())
	}
}

// TestSyncerDemotesAndResets fails the only peer repeatedly: after
// DemoteAfter consecutive timeouts it is demoted, yet the syncer keeps
// probing it (all-demoted resets the scores rather than stalling forever).
func TestSyncerDemotesAndResets(t *testing.T) {
	_, joiner, _, joinEp, net := syncTestNodes(t, 0)
	if _, err := net.Join("flaky"); err != nil {
		t.Fatal(err)
	}

	cfg := SyncConfig{
		RequestTimeout: 10 * time.Millisecond,
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
		DemoteAfter:    2,
	}
	sync := NewSyncer(joiner, joinEp, []string{"flaky"}, cfg)

	now := time.Now()
	for i := 0; i < 5; i++ {
		if !sync.Kick(now) {
			// Backoff may still be pending; advance further.
			now = now.Add(20 * time.Millisecond)
			if !sync.Kick(now) {
				t.Fatalf("round %d: syncer stopped probing its only peer", i)
			}
		}
		if sync.Peer() != "flaky" {
			t.Fatalf("round %d: request went to %q", i, sync.Peer())
		}
		now = now.Add(20 * time.Millisecond) // past the deadline
		sync.Tick(now)
		if sync.Inflight() && sync.Peer() == "flaky" {
			// Tick may have re-kicked immediately once backoff passed;
			// that is the desired keep-probing behavior.
			continue
		}
		now = now.Add(20 * time.Millisecond) // past any backoff
	}

	h := sync.health["flaky"]
	if h == nil {
		t.Fatal("no health record")
	}
	// The score must have been reset at least once (failures never exceed
	// DemoteAfter by much because all-demoted wipes the slate).
	if h.failures > 5 {
		t.Fatalf("failures=%d, reset never happened", h.failures)
	}
}

// TestSyncerBackoffGrows checks the exponential schedule: consecutive
// failures stretch the pause between requests, capped at BackoffMax.
func TestSyncerBackoffGrows(t *testing.T) {
	_, joiner, _, joinEp, net := syncTestNodes(t, 0)
	if _, err := net.Join("dead" /* never answers */); err != nil {
		t.Fatal(err)
	}
	cfg := SyncConfig{
		RequestTimeout: time.Millisecond,
		BackoffBase:    100 * time.Millisecond,
		BackoffMax:     400 * time.Millisecond,
		DemoteAfter:    100, // keep rotation trivial
	}
	sync := NewSyncer(joiner, joinEp, []string{"dead"}, cfg)

	now := time.Now()
	sync.Kick(now)
	now = now.Add(2 * time.Millisecond)
	sync.Tick(now) // first failure: backoff ~100ms (±20%)
	if sync.Kick(now.Add(50 * time.Millisecond)) {
		t.Fatal("kick inside first backoff window")
	}
	if !sync.Kick(now.Add(200 * time.Millisecond)) {
		t.Fatal("kick after first backoff window failed")
	}
	now = now.Add(202 * time.Millisecond)
	sync.Tick(now) // second failure: backoff ~200ms
	if sync.Kick(now.Add(100 * time.Millisecond)) {
		t.Fatal("kick inside doubled backoff window")
	}
	if !sync.Kick(now.Add(300 * time.Millisecond)) {
		t.Fatal("kick after doubled backoff failed")
	}
}

// TestSyncerPaginationSticksToPeer: a More-flagged response continues the
// exchange with the SAME peer from UpTo — rotating mid-exchange would
// restart the cursor at MinHeight and, on a node that cannot advance,
// page forever.
func TestSyncerPaginationSticksToPeer(t *testing.T) {
	veteran, joiner, vetEp, joinEp, net := syncTestNodes(t, 3)
	if _, err := net.Join("other"); err != nil {
		t.Fatal(err)
	}
	sync := NewSyncer(joiner, joinEp, []string{"other", "veteran"}, SyncConfig{})

	now := time.Now()
	sync.Kick(now)
	if sync.Peer() != "other" {
		t.Fatalf("first request went to %q", sync.Peer())
	}
	// "other" stays silent: time out, then rotate to the veteran.
	now = now.Add(time.Second)
	sync.Tick(now)
	now = now.Add(time.Second)
	sync.Tick(now)
	if sync.Peer() != "veteran" {
		t.Fatalf("rotation picked %q, want veteran", sync.Peer())
	}
	req := <-vetEp.Inbox()
	veteran.HandleSyncRequest(vetEp, req)
	resp := <-joinEp.Inbox()
	if !resp.More {
		t.Fatal("batch cap 3 did not truncate the response")
	}
	if _, err := sync.HandleBlocks(now, resp); err != nil {
		t.Fatal(err)
	}
	if sync.Peer() != "veteran" {
		t.Fatalf("pagination rotated away to %q mid-exchange", sync.Peer())
	}
	next := <-vetEp.Inbox()
	if next.Type != p2p.MsgGetBlocks || next.Height != resp.UpTo {
		t.Fatalf("follow-up requested height %d, want cursor %d", next.Height, resp.UpTo)
	}
}

// TestSyncerFullResyncAfterNoProgress: an exchange that completes without
// raising MinHeight means something at or below the cursor is missing (a
// fork candidate lost in a crash); the syncer must fall back to requesting
// from height 0, and a fruitless resync must not re-arm itself.
func TestSyncerFullResyncAfterNoProgress(t *testing.T) {
	veteran, joiner, vetEp, joinEp, _ := syncTestNodes(t, 0)
	sync := NewSyncer(joiner, joinEp, []string{"veteran"}, SyncConfig{})

	// Catch the joiner up completely first — a normal, productive exchange.
	now := time.Now()
	sync.Kick(now)
	req := <-vetEp.Inbox()
	veteran.HandleSyncRequest(vetEp, req)
	resp := <-joinEp.Inbox()
	if _, err := sync.HandleBlocks(now, resp); err != nil {
		t.Fatal(err)
	}
	if joiner.MinHeight() != veteran.MinHeight() {
		t.Fatalf("joiner at %d, veteran at %d", joiner.MinHeight(), veteran.MinHeight())
	}
	if sync.Inflight() {
		t.Fatal("productive exchange armed a resync")
	}

	// Now an exchange that yields nothing: all duplicates, not truncated.
	now = now.Add(time.Second)
	sync.Kick(now)
	req = <-vetEp.Inbox()
	if req.Height != joiner.MinHeight() {
		t.Fatalf("request from %d, want MinHeight %d", req.Height, joiner.MinHeight())
	}
	last := resp.Blocks[len(resp.Blocks)-1]
	if _, err := sync.HandleBlocks(now, p2p.Message{
		Type: p2p.MsgBlocks, From: "veteran",
		Blocks: []*types.Block{last}, UpTo: last.Header.Height,
	}); err != nil {
		t.Fatal(err)
	}
	full := <-vetEp.Inbox()
	if full.Type != p2p.MsgGetBlocks || full.Height != 0 {
		t.Fatalf("expected full resync from height 0, got height %d", full.Height)
	}

	// Serving the resync yields duplicates again; the syncer must settle
	// rather than loop.
	veteran.HandleSyncRequest(vetEp, full)
	resp = <-joinEp.Inbox()
	if _, err := sync.HandleBlocks(now, resp); err != nil {
		t.Fatal(err)
	}
	if sync.Inflight() {
		t.Fatal("fruitless full resync re-armed itself")
	}
}

// TestSyncerIgnoresStrayResponses: a MsgBlocks from a peer we did not ask
// must not clear the outstanding request, though its blocks are ingested.
func TestSyncerIgnoresStrayResponses(t *testing.T) {
	veteran, joiner, _, joinEp, net := syncTestNodes(t, 0)
	if _, err := net.Join("dead"); err != nil {
		t.Fatal(err)
	}
	sync := NewSyncer(joiner, joinEp, []string{"dead", "veteran"}, SyncConfig{})

	now := time.Now()
	sync.Kick(now)
	if sync.Peer() != "dead" {
		t.Fatalf("request went to %q", sync.Peer())
	}
	blocks := veteran.Ledger().BlocksAbove(0)
	accepted, err := sync.HandleBlocks(now, p2p.Message{
		Type: p2p.MsgBlocks, From: "veteran", Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if accepted == 0 {
		t.Fatal("stray response's blocks were not ingested")
	}
	if !sync.Inflight() || sync.Peer() != "dead" {
		t.Fatal("stray response cleared the outstanding request")
	}
}
