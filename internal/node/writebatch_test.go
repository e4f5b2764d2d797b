package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// TestWriteBatchMatchesMapModel: the commitment phase's batch is what a map
// holds after every commit group's writes were put into it in sequence
// order, flattened in key order. The schedules are random: few keys, so
// later groups rewrite what earlier groups wrote, some writes delete, a
// transaction may write one key twice, and aborted transactions' writes
// must not appear.
func TestWriteBatchMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 300; round++ {
		keys := 1 + rng.Intn(24)
		sims, sched := randomSchedule(rng, keys)
		model := make(map[types.Key][]byte)
		for _, group := range sched.Groups() {
			for _, id := range group {
				for _, w := range sims[id].Writes {
					model[w.Key] = w.Value
				}
			}
		}
		want := make([]types.WriteEntry, 0, len(model))
		for k, v := range model {
			want = append(want, types.WriteEntry{Key: k, Value: v})
		}
		slices.SortFunc(want, func(a, b types.WriteEntry) int { return a.Key.Compare(b.Key) })

		rng.Shuffle(len(sims), func(i, j int) { sims[i], sims[j] = sims[j], sims[i] })
		got := writeBatch(sims, sched)
		if len(got) != len(want) {
			t.Fatalf("round %d: batch of %d writes, model %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("round %d: entry %d is %s=%q, model %s=%q", round, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

// randomSchedule draws an epoch over keys cells: transactions numbered by
// position, each committed into a random group whose members write
// pairwise-distinct keys (the scheduler's invariant), or aborted.
func randomSchedule(rng *rand.Rand, keys int) ([]*types.SimResult, *types.Schedule) {
	sched := types.NewSchedule()
	groups := 1 + rng.Intn(6)
	taken := make([]map[types.Key]bool, groups)
	for g := range taken {
		taken[g] = make(map[types.Key]bool)
	}
	sims := make([]*types.SimResult, 1+rng.Intn(40))
	for i := range sims {
		id := types.TxID(i)
		sim := &types.SimResult{Tx: &types.Transaction{ID: id}}
		sims[i] = sim
		g := rng.Intn(groups)
		for w := rng.Intn(4); w > 0; w-- {
			k := types.KeyFromUint64(uint64(rng.Intn(keys)))
			if taken[g][k] && !slices.ContainsFunc(sim.Writes, func(e types.WriteEntry) bool { return e.Key == k }) {
				continue // another member of the group writes it
			}
			taken[g][k] = true
			var v []byte
			if rng.Intn(5) > 0 {
				v = []byte(fmt.Sprintf("tx%d-w%d", i, w))
			}
			sim.Writes = append(sim.Writes, types.WriteEntry{Key: k, Value: v})
		}
		if rng.Intn(6) == 0 {
			sched.Abort(id, types.AbortUnserializable)
		} else {
			sched.Commit(id, types.Seq(2*g+1))
		}
	}
	return sims, sched
}
