package p2p

import (
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/types"
)

func TestJoinAndDuplicate(t *testing.T) {
	n := NewNetwork(Config{})
	if _, err := n.Join("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("a"); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := n.Join("b"); err != nil {
		t.Fatal(err)
	}
	if len(n.nodes) != 2 {
		t.Fatalf("%d endpoints joined, want 2", len(n.nodes))
	}
	n.Close()
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	n := NewNetwork(Config{QueueLen: 16})
	defer n.Close()
	a, _ := n.Join("a")
	b, _ := n.Join("b")
	c, _ := n.Join("c")

	blk := &types.Block{Header: types.BlockHeader{Nonce: 7}}
	a.Broadcast(Message{Type: MsgBlock, Block: blk})

	for _, peer := range []*Endpoint{b, c} {
		select {
		case msg := <-peer.Inbox():
			if msg.From != "a" || msg.Type != MsgBlock || msg.Block.Hash() != blk.Hash() {
				t.Fatalf("%s received %+v", peer.ID(), msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s never received the broadcast", peer.ID())
		}
	}
	select {
	case msg := <-a.Inbox():
		t.Fatalf("sender received own broadcast: %+v", msg)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSendTargeted(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a, _ := n.Join("a")
	b, _ := n.Join("b")
	c, _ := n.Join("c")

	a.Send("b", Message{Type: MsgTxs, Txs: []*types.Transaction{{Nonce: 1}}})
	select {
	case msg := <-b.Inbox():
		if len(msg.Txs) != 1 || msg.Txs[0].Nonce != 1 {
			t.Fatalf("b received %+v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("b never received the message")
	}
	select {
	case <-c.Inbox():
		t.Fatal("c received a targeted message")
	case <-time.After(50 * time.Millisecond):
	}
	// Unknown peer: silently dropped.
	a.Send("nobody", Message{Type: MsgTxs})
}

func TestLatencyIsApplied(t *testing.T) {
	n := NewNetwork(Config{Latency: 50 * time.Millisecond})
	defer n.Close()
	a, _ := n.Join("a")
	b, _ := n.Join("b")
	start := time.Now()
	a.Send("b", Message{Type: MsgTxs})
	<-b.Inbox()
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("delivered in %v despite 50ms latency", elapsed)
	}
}

func TestLossRate(t *testing.T) {
	n := NewNetwork(Config{LossRate: 1.0})
	defer n.Close()
	a, _ := n.Join("a")
	b, _ := n.Join("b")
	a.Send("b", Message{Type: MsgTxs})
	select {
	case <-b.Inbox():
		t.Fatal("message survived 100% loss")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	n := NewNetwork(Config{})
	a, _ := n.Join("a")
	b, _ := n.Join("b")
	n.Close()
	a.Send("b", Message{Type: MsgTxs})
	select {
	case <-b.Inbox():
		t.Fatal("delivery after close")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestPartitionBlocksCrossGroupTraffic(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a, _ := n.Join("a")
	b, _ := n.Join("b")
	c, _ := n.Join("c")

	// Isolate c: a and b stay connected via the implicit group.
	n.Partition([]string{"c"})
	a.Send("c", Message{Type: MsgTxs})
	select {
	case <-c.Inbox():
		t.Fatal("message crossed the partition")
	case <-time.After(50 * time.Millisecond):
	}
	a.Send("b", Message{Type: MsgTxs})
	select {
	case <-b.Inbox():
	case <-time.After(2 * time.Second):
		t.Fatal("same-group delivery blocked")
	}
	c.Send("a", Message{Type: MsgTxs})
	select {
	case <-a.Inbox():
		t.Fatal("isolated node reached the majority")
	case <-time.After(50 * time.Millisecond):
	}

	// Heal: traffic flows again.
	n.Heal()
	a.Send("c", Message{Type: MsgTxs})
	select {
	case <-c.Inbox():
	case <-time.After(2 * time.Second):
		t.Fatal("healed partition still blocking")
	}
}

func TestSetDownSilencesEndpoint(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a, _ := n.Join("a")
	b, _ := n.Join("b")

	n.SetDown("b", true)
	a.Send("b", Message{Type: MsgTxs})
	b.Send("a", Message{Type: MsgTxs})
	select {
	case <-b.Inbox():
		t.Fatal("down endpoint received")
	case <-a.Inbox():
		t.Fatal("down endpoint sent")
	case <-time.After(50 * time.Millisecond):
	}

	// Restart: drain the stale inbox, then deliver normally.
	n.SetDown("b", false)
	b.Drain()
	a.Send("b", Message{Type: MsgTxs})
	select {
	case <-b.Inbox():
	case <-time.After(2 * time.Second):
		t.Fatal("restarted endpoint unreachable")
	}
}

// TestQueueFullRetryForBlocks: with a 1-slot inbox, a second MsgBlock must
// survive a briefly-full queue via the bounded retry once the receiver
// drains, while a non-block message in the same situation drops.
func TestQueueFullRetryForBlocks(t *testing.T) {
	n := NewNetwork(Config{QueueLen: 1, QueueRetries: 20, RetryDelay: 5 * time.Millisecond})
	defer n.Close()
	a, _ := n.Join("a")
	b, _ := n.Join("b")

	blk := &types.Block{Header: types.BlockHeader{Nonce: 1}}
	a.Send("b", Message{Type: MsgBlock, Block: blk})
	a.Send("b", Message{Type: MsgBlock, Block: blk})

	// Drain slowly: both blocks must arrive — the second one via retries.
	got := 0
	deadline := time.After(2 * time.Second)
	for got < 2 {
		time.Sleep(20 * time.Millisecond)
		select {
		case <-b.Inbox():
			got++
		case <-deadline:
			t.Fatalf("only %d of 2 blocks arrived; retry did not save the second", got)
		}
	}
}

// TestQueueFullDropsNonBlocksImmediately: transactions do not retry — with
// a stuffed 1-slot inbox they drop rather than block the delivery pool.
func TestQueueFullDropsNonBlocksImmediately(t *testing.T) {
	n := NewNetwork(Config{QueueLen: 1, QueueRetries: -1})
	defer n.Close()
	a, _ := n.Join("a")
	b, _ := n.Join("b")

	a.Send("b", Message{Type: MsgTxs})
	// Wait for the first delivery to occupy the only slot.
	time.Sleep(20 * time.Millisecond)
	a.Send("b", Message{Type: MsgTxs})
	time.Sleep(20 * time.Millisecond)
	if len(b.Inbox()) != 1 {
		t.Fatalf("inbox holds %d messages, want 1 (second dropped)", len(b.Inbox()))
	}
}
