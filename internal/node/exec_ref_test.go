package node

import (
	"bytes"
	"fmt"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/vm"
)

// execRef is the node-level executor reference: the way an epoch ran before
// the MVCC view, kept on the test side as the oracle for the one executor
// the node has left. Each epoch is simulated one transaction at a time over
// a deep snapshot copy of the node's pre-epoch state, scheduled by the
// node's own scheduler and committed through CommitSchedule into a second
// StateDB; the node then runs the same blocks for real, and read values,
// schedule and root must agree.
type execRef struct {
	db *statedb.StateDB
	// view is how the executor under test reads pre-epoch state: the node's
	// MVCC view, until the meta-test plants its fault through this seam.
	view func(*Node) statedb.Reader
}

func liveView(n *Node) statedb.Reader { return n.state.View() }

// newExecRef opens the reference's own state over the node's genesis.
func newExecRef(n *Node) (*execRef, error) {
	db := statedb.Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit(n.cfg.GenesisWrites); err != nil {
		return nil, err
	}
	if db.Root() != n.StateRoot() {
		return nil, fmt.Errorf("reference genesis root %s, node %s", db.Root(), n.StateRoot())
	}
	return &execRef{db: db, view: liveView}, nil
}

// process runs the node's next epoch over blocks beside the reference and
// returns the first difference it can observe.
func (r *execRef) process(n *Node, blocks []*types.Block) error {
	var valid []*types.Block
	for _, b := range blocks {
		if n.validStateRootLocked(b) {
			valid = append(valid, b)
		}
	}
	snap, view := n.state.Snapshot(), r.view(n)
	var sims []*types.SimResult
	var failed []types.TxID
	for _, tx := range types.NewEpoch(n.NextEpoch(), valid).Txs {
		want, got := simulated(n, tx, snap), simulated(n, tx, view)
		if err := sameReads(got, want); err != nil {
			return fmt.Errorf("tx %d: %w", tx.ID, err)
		}
		if want.Err != nil {
			failed = append(failed, tx.ID)
			continue
		}
		sims = append(sims, want)
	}
	sched, _, err := n.cfg.Scheduler.Schedule(sims)
	if err != nil {
		return err
	}
	for _, id := range failed {
		sched.Abort(id, types.AbortExecution)
	}
	sched.NormalizeAborts()
	root, err := CommitSchedule(r.db, sims, sched, n.cfg.Workers)
	if err != nil {
		return err
	}

	res, err := n.ProcessAssembledEpoch(blocks)
	if err != nil {
		return err
	}
	if !res.Schedule.Equal(sched) {
		return fmt.Errorf("epoch %d: the node's schedule differs from the reference's", res.Epoch)
	}
	if res.StateRoot != root {
		return fmt.Errorf("epoch %d: node root %s, reference root %s", res.Epoch, res.StateRoot, root)
	}
	return nil
}

// simulated is one transaction's execution in a result and an arena of its
// own.
func simulated(n *Node, tx *types.Transaction, state statedb.Reader) *types.SimResult {
	sim := new(types.SimResult)
	n.simulate(new(vm.Arena), tx, state, sim)
	return sim
}

// sameReads compares what two executions of one transaction observed.
func sameReads(got, want *types.SimResult) error {
	if (got.Err == nil) != (want.Err == nil) || len(got.Reads) != len(want.Reads) {
		return fmt.Errorf("executed differently: %d reads (err %v), reference %d reads (err %v)",
			len(got.Reads), got.Err, len(want.Reads), want.Err)
	}
	for i, rd := range want.Reads {
		if g := got.Reads[i]; g.Key != rd.Key || !bytes.Equal(g.Value, rd.Value) {
			return fmt.Errorf("read %d: key %x = %x, reference key %x = %x", i, g.Key[:4], g.Value, rd.Key[:4], rd.Value)
		}
	}
	return nil
}
