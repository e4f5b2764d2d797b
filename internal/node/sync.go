package node

import (
	"errors"

	"github.com/nezha-dag/nezha/internal/dag"
	"github.com/nezha-dag/nezha/internal/p2p"
	"github.com/nezha-dag/nezha/internal/types"
)

// Block synchronization: the paper's deployment includes a full node whose
// job is to "synchronize the entire system state" (§VI-A). Synchronization
// here is block-based — a late joiner fetches the canonical blocks it is
// missing and replays the deterministic pipeline, which reproduces the
// exact state every other node holds (state roots are checked per epoch by
// validation, so a lying sync peer cannot corrupt the joiner silently: its
// blocks simply fail PoW or root checks and are discarded).

// MinHeight returns the lowest canonical chain height — everything at or
// below it is fully synchronized.
func (n *Node) MinHeight() uint64 {
	min := n.ledger.Height(0)
	for c := uint32(1); c < uint32(n.ledger.Chains()); c++ {
		if h := n.ledger.Height(c); h < min {
			min = h
		}
	}
	return min
}

// DefaultSyncBatch is the MsgBlocks response cap when Config.SyncBatch is
// zero: large enough that a small cluster catches up in one round trip,
// small enough that serving a long-offline joiner never serializes the
// whole chain into one message.
const DefaultSyncBatch = 128

// syncBatch resolves Config.SyncBatch.
func (n *Node) syncBatch() int {
	if n.cfg.SyncBatch > 0 {
		return n.cfg.SyncBatch
	}
	return DefaultSyncBatch
}

// HandleSyncRequest serves a MsgGetBlocks: it replies with every block it
// knows — canonical and fork candidates, because committed tips may point
// at candidates — above the requested height, capped near Config.SyncBatch
// blocks per response. The cap cuts at a height boundary so each reply
// covers a complete height window (request Height, UpTo]: the requester
// can advance its paging cursor to UpTo knowing nothing below it was
// withheld, even while some of its blocks still sit in the orphan buffer
// waiting for tips from higher windows. A truncated reply sets More.
func (n *Node) HandleSyncRequest(ep *p2p.Endpoint, msg p2p.Message) {
	all := n.ledger.SyncBlocksAbove(msg.Height)
	if len(all) == 0 {
		return
	}
	blocks, more := all, false
	if batch := n.syncBatch(); len(all) > batch {
		cutH := all[batch].Header.Height
		if all[0].Header.Height == cutH {
			// The window's first height level alone exceeds the batch:
			// ship the whole level anyway, a partial level would let the
			// requester advance past blocks it never saw.
			end := batch
			for end < len(all) && all[end].Header.Height == cutH {
				end++
			}
			blocks, more = all[:end], end < len(all)
		} else {
			// Exclude the partially-covered level at the cut.
			end := batch
			for end > 0 && all[end-1].Header.Height == cutH {
				end--
			}
			blocks, more = all[:end], true
		}
	}
	syncServed(n.id).Add(float64(len(blocks)))
	ep.Send(msg.From, p2p.Message{
		Type:   p2p.MsgBlocks,
		Blocks: blocks,
		UpTo:   blocks[len(blocks)-1].Header.Height,
		More:   more,
	})
}

// HandleSyncResponse ingests a MsgBlocks batch, tolerating duplicates,
// already-final blocks, and out-of-order delivery (the orphan buffer
// reassembles). It returns the number of blocks accepted and the first
// hard error (invalid blocks from a malicious peer).
func (n *Node) HandleSyncResponse(msg p2p.Message) (int, error) {
	accepted := 0
	for _, b := range msg.Blocks {
		err := n.SubmitBlock(b)
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, dag.ErrDuplicateBlock),
			errors.Is(err, dag.ErrBelowFinal),
			errors.Is(err, dag.ErrUnknownParent):
			// Benign: already known, already final, or buffered.
		default:
			return accepted, err
		}
	}
	return accepted, nil
}

// HandleMessage dispatches one network message to the appropriate handler;
// internal/cluster's round drains every inbox through it.
// MsgTxs is returned to the caller (miner wiring is the caller's concern).
func (n *Node) HandleMessage(ep *p2p.Endpoint, msg p2p.Message) ([]*types.Transaction, error) {
	switch msg.Type {
	case p2p.MsgBlock:
		err := n.SubmitBlock(msg.Block)
		if err != nil && !errors.Is(err, dag.ErrDuplicateBlock) &&
			!errors.Is(err, dag.ErrBelowFinal) && !errors.Is(err, dag.ErrUnknownParent) {
			return nil, err
		}
		return nil, nil
	case p2p.MsgGetBlocks:
		n.HandleSyncRequest(ep, msg)
		return nil, nil
	case p2p.MsgBlocks:
		_, err := n.HandleSyncResponse(msg)
		return nil, err
	case p2p.MsgTxs:
		return msg.Txs, nil
	default:
		return nil, nil
	}
}
