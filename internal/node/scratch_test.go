package node

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// TestEpochScratchDoesNotAlias: nothing an epoch hands out lives in the
// scratch ring. A node kept an epoch ahead (every commit starts a run, so
// both slots cycle) processes epoch 2; the test keeps its EpochResult's
// Schedule and, through a view pinned right after it, every genesis cell's
// value — the bytes the view returns, epoch 2's write values among them.
// Three more epochs recycle both slots, among them epoch 5's discarded run
// and its inline redo; then every buffer of both slots is overwritten with
// junk. The schedule and the bytes must be as they were. The run left
// pending is dropped, so epoch 6 runs inline on a scribbled slot and epoch
// 7 adopts a run on the other: both must reach the roots of a twin nobody
// scribbled on, which they can only if taking a slot resets all of it.
func TestEpochScratchDoesNotAlias(t *testing.T) {
	if err := scratchAliasing(t, false); err != nil {
		t.Fatal(err)
	}
}

// TestEpochScratchAliasingBites is TestEpochScratchDoesNotAlias's meta-test.
// It plants what a value slab recycled with the ring would do: once epoch 2
// has returned and its look-ahead successor has finished, the write values
// its slot's results point to are overwritten, as the run that takes the
// slot next would overwrite them by carving its own values from the same
// bytes. The kept bytes must change.
func TestEpochScratchAliasingBites(t *testing.T) {
	err := scratchAliasing(t, true)
	if err == nil {
		t.Fatal("write values recycled with the ring go unnoticed")
	}
	t.Logf("caught: %v", err)
}

// scratchAliasing runs the scenario of TestEpochScratchDoesNotAlias and
// returns the first thing kept from epoch 2 that changed, if any.
// recycleValues plants the fault.
func scratchAliasing(t *testing.T, recycleValues bool) error {
	l, genesis := lookaheadScript(t)
	const workers = 2
	n := lookaheadNode(t, "scribbled", workers, genesis, false)
	twin := lookaheadNode(t, "clean", workers, genesis, false)
	process := func(n *Node, e uint64) *EpochResult {
		t.Helper()
		res, err := n.ProcessEpoch(e)
		if err != nil {
			t.Fatalf("node %s: epoch %d: %v", n.id, e, err)
		}
		return res
	}
	for _, m := range []*Node{n, twin} {
		l.submit(m, 1)
		l.submit(m, 2)
	}
	var (
		kept         *types.Schedule
		keptSeqs     map[types.TxID]types.Seq
		keptAborts   []types.Abort
		values, want [][]byte
	)
	for e := uint64(1); e <= 7; e++ {
		if e == 6 {
			pendingRun(t, n)
			n.mu.Lock()
			n.dropLookahead()
			n.mu.Unlock()
			scribble(n)
		}
		res := process(n, e)
		if e == 2 {
			kept = res.Schedule
			keptSeqs, keptAborts = maps.Clone(kept.Seqs), slices.Clone(kept.Aborted)
			view := n.State().View()
			for _, w := range genesis {
				v, err := view.Get(w.Key)
				if err != nil {
					t.Fatal(err)
				}
				values, want = append(values, v), append(want, bytes.Clone(v))
			}
			if recycleValues {
				pendingRun(t, n)
				for _, r := range n.scratch[e&1].results {
					for _, w := range r.Writes {
						copy(w.Value, junk)
					}
				}
			}
		}
		if got := process(twin, e); e >= 6 && !recycleValues && got.StateRoot != res.StateRoot {
			t.Fatalf("epoch %d after the scribble: root %s, the clean twin's %s", e, res.StateRoot.Short(), got.StateRoot.Short())
		}
		for _, m := range []*Node{n, twin} {
			l.submit(m, e+2)
		}
	}
	if !maps.Equal(kept.Seqs, keptSeqs) || !slices.Equal(kept.Aborted, keptAborts) {
		return fmt.Errorf("epoch 2's schedule changed after the ring was recycled")
	}
	for i, v := range values {
		if !bytes.Equal(v, want[i]) {
			return fmt.Errorf("cell %x: the view pinned at epoch 2 read %x, now %x", genesis[i].Key[:4], want[i], v)
		}
	}
	return nil
}

// scribble overwrites every buffer of both slots of n's scratch ring, to
// its capacity, with junk: entries that point to junk, ids and sequence
// numbers past any epoch's. An arena is reset and then carved one entry
// and one value at a time until well past its chunks, so whatever it
// recycles is overwritten too.
func scribble(n *Node) {
	tx := &types.Transaction{ID: 1 << 40, Payload: junk}
	write := types.WriteEntry{Key: types.KeyFromUint64(1 << 60), Value: junk}
	for i := range n.scratch {
		s := &n.scratch[i]
		fill(s.txs, tx)
		fill(s.own, *tx)
		fill(s.ptrs, tx)
		fill(s.results, types.SimResult{Tx: tx, Writes: []types.WriteEntry{write}})
		fill(s.sims, &types.SimResult{Tx: tx})
		fill(s.failed, tx.ID)
		fill(s.busy, -1)
		fill(s.tagged, taggedWrite{1 << 40, write})
		fill(s.batch, write)
		if s.seen != nil {
			s.seen[types.HashBytes(junk)] = struct{}{}
		}
		for a := range s.arenas {
			arena := &s.arenas[a]
			arena.Reset()
			for k := 0; k < 1<<14; k++ {
				reads, writes := arena.Sets(1, 1)
				_ = append(reads, types.ReadEntry{Key: write.Key, Value: junk})
				_ = append(writes, write)
				copy(arena.Word(0), junk)
			}
		}
	}
}

var junk = []byte{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef}

// fill sets every element of buf's array, up to its capacity, to v.
func fill[T any](buf []T, v T) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = v
	}
}
