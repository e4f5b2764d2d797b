package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// smallBankSims generates one epoch of SmallBank simulation results at the
// given Zipfian skew via the workload fast path.
func smallBankSims(t *testing.T, seed int64, n int, skew float64) []*types.SimResult {
	return smallBankSimsN(t, seed, n, skew, 2_000)
}

func smallBankSimsN(t *testing.T, seed int64, n int, skew float64, accounts uint64) []*types.SimResult {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{
		Seed: seed, Accounts: accounts, Skew: skew, InitialBalance: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(n)
	for i, tx := range txs {
		tx.ID = types.TxID(i)
	}
	snap, err := gen.Snapshot(txs)
	if err != nil {
		t.Fatal(err)
	}
	sims, err := workload.Simulate(txs, snap)
	if err != nil {
		t.Fatal(err)
	}
	return sims
}

// edgeSet flattens a dependency graph into a comparable form.
func edgeSet(a *ACG) map[[2]int]bool {
	out := make(map[[2]int]bool)
	for u := 0; u < a.Deps.N(); u++ {
		for _, v := range a.Deps.Out(u) {
			out[[2]int{u, v}] = true
		}
	}
	return out
}

// TestShardedACGMatchesSequential asserts the determinism contract of the
// sharded builder: for SmallBank/Zipf epochs across contention levels, the
// sharded ACG is structurally identical to the sequential reference —
// same subscripts, same unit order per address, same edge set — at shard
// counts 1, 2, 4, and 8.
func TestShardedACGMatchesSequential(t *testing.T) {
	for _, skew := range []float64{0, 0.6, 0.9} {
		for _, n := range []int{3, 64, 500, 1024} {
			sims := smallBankSims(t, int64(n)+7, n, skew)
			ref := BuildACG(sims)
			for _, shards := range []int{1, 2, 4, 8} {
				got := BuildACGSharded(sims, shards)
				if !reflect.DeepEqual(ref.Addrs, got.Addrs) {
					t.Fatalf("skew=%.1f n=%d shards=%d: address sets diverge", skew, n, shards)
				}
				if !reflect.DeepEqual(edgeSet(ref), edgeSet(got)) {
					t.Fatalf("skew=%.1f n=%d shards=%d: edge sets diverge", skew, n, shards)
				}
				if !reflect.DeepEqual(ref.sims, got.sims) {
					t.Fatalf("skew=%.1f n=%d shards=%d: dense sim lookups diverge", skew, n, shards)
				}
				if ref.NumUnits() != got.NumUnits() {
					t.Fatalf("skew=%.1f n=%d shards=%d: unit counts diverge", skew, n, shards)
				}
			}
		}
	}
}

// TestParallelScheduleMatchesSequential is the end-to-end determinism test
// the tentpole demands: on randomized SmallBank/Zipf epochs AND on the
// package's fully random workloads, the parallel core (sharded ACG +
// cluster-parallel sorting + parallel safety sweep) must produce schedules
// byte-identical to the sequential reference at parallelism 1, 2, 4, 8.
func TestParallelScheduleMatchesSequential(t *testing.T) {
	baseCfg := []Config{
		DefaultConfig(),
		{Reorder: false, Heuristic: RankMaxOutDegree},
		{Reorder: true, Heuristic: RankMinSubscript},
	}
	for ci, cfg := range baseCfg {
		cfg.Parallelism = 1
		ref := MustNewScheduler(cfg)
		for _, skew := range []float64{0, 0.6, 0.9} {
			sims := smallBankSims(t, int64(ci*31), 1024, skew)
			want, _, err := ref.Schedule(sims)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 4, 8} {
				pcfg := cfg
				pcfg.Parallelism = par
				got, pb, err := MustNewScheduler(pcfg).Schedule(sims)
				if err != nil {
					t.Fatal(err)
				}
				if !want.Equal(got) {
					t.Fatalf("cfg=%d skew=%.1f par=%d: schedule diverges from sequential reference", ci, skew, par)
				}
				if pb.Shards != par {
					t.Fatalf("cfg=%d skew=%.1f par=%d: breakdown reports %d shards", ci, skew, par, pb.Shards)
				}
				if pb.SortClusters == 0 || pb.MaxClusterAddrs == 0 {
					t.Fatalf("cfg=%d skew=%.1f par=%d: cluster counters not recorded: %+v", ci, skew, par, pb)
				}
			}
		}
	}

	// The random workloads exercise read/write shapes SmallBank never
	// produces (multi-write no-read reordering candidates, stateless
	// transactions).
	seqSched := MustNewScheduler(Config{Reorder: true, Heuristic: RankMaxOutDegree, Parallelism: 1})
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 101))
		_, sims := randomWorkload(rng, 300, 40)
		want, _, err := seqSched.Schedule(sims)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4, 8} {
			par := par
			sched := MustNewScheduler(Config{Reorder: true, Heuristic: RankMaxOutDegree, Parallelism: par})
			got, _, err := sched.Schedule(sims)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(got) {
				t.Fatalf("trial=%d par=%d: random-workload schedule diverges", trial, par)
			}
		}
	}
}

// TestConflictClustersPartition checks the clustering invariants the
// parallel sorter's safety argument rests on: clusters partition the rank
// order, and no transaction's footprint spans two clusters.
func TestConflictClustersPartition(t *testing.T) {
	sims := smallBankSims(t, 3, 700, 0.5)
	acg := BuildACG(sims)
	ranks := RankAddresses(acg, RankMaxOutDegree)
	clusters := conflictClusters(acg, ranks)

	seen := make(map[int]int) // address -> cluster
	total := 0
	for c, addrs := range clusters {
		total += len(addrs)
		for _, j := range addrs {
			if prev, dup := seen[j]; dup {
				t.Fatalf("address %d in clusters %d and %d", j, prev, c)
			}
			seen[j] = c
		}
	}
	if total != len(ranks) {
		t.Fatalf("clusters cover %d addresses, rank order has %d", total, len(ranks))
	}
	for _, sim := range sims {
		var first = -1
		check := func(k types.Key) {
			c := seen[acg.index[k]]
			if first == -1 {
				first = c
			} else if c != first {
				t.Fatalf("tx %d footprint spans clusters %d and %d", sim.Tx.ID, first, c)
			}
		}
		for _, r := range sim.Reads {
			check(r.Key)
		}
		for _, w := range sim.Writes {
			check(w.Key)
		}
	}
}

// TestStatelessTxSequencedInSorter pins the satellite fix: a transaction
// with no reads and no writes gets initialSeq from the sorter itself
// (sorter.finish), not from a post-hoc patch in Schedule, and commits in
// the first group alongside conflict-free peers.
func TestStatelessTxSequencedInSorter(t *testing.T) {
	sims := []*types.SimResult{
		{Tx: &types.Transaction{ID: 0}}, // stateless
		simRW(1, []types.Key{key(7)}, []types.Key{key(8)}),
		{Tx: &types.Transaction{ID: 2}}, // stateless
	}
	for _, par := range []int{1, 4} {
		sched := MustNewScheduler(Config{Reorder: true, Heuristic: RankMaxOutDegree, Parallelism: par})
		out, _, err := sched.Schedule(sims)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []types.TxID{0, 2} {
			if out.Seqs[id] != initialSeq {
				t.Fatalf("par=%d: stateless tx %d seq = %d, want %d", par, id, out.Seqs[id], initialSeq)
			}
		}
		if out.AbortedCount() != 0 {
			t.Fatalf("par=%d: aborts on a conflict-free epoch", par)
		}
	}
}

func ExampleBuildACGSharded() {
	sims := []*types.SimResult{
		simRW(0, []types.Key{key(1)}, []types.Key{key(2)}),
		simRW(1, []types.Key{key(2)}, []types.Key{key(3)}),
	}
	acg := BuildACGSharded(sims, 2)
	fmt.Println(acg.NumAddresses(), acg.NumUnits(), acg.Deps.EdgeCount())
	// Output: 3 4 2
}
