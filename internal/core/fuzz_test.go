package core_test

import (
	"slices"
	"testing"

	"github.com/nezha-dag/nezha/internal/check"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/types"
)

// Fuzz inputs decode into epochs through check.EpochFromBytes — the byte
// dialect documented in internal/check/encode.go, shared with the checked-in
// corpus under testdata/fuzz/ (regenerate with `nezha-check corpus`).

// twoAddressPairs is an epoch whose schedule, under either rank heuristic,
// leaves transactions 1 and 2 violating on two addresses: the sweep must
// count that pair twice.
var twoAddressPairs = []byte{
	0x1, 0x8, 0x0, 0x1, 0x9, 0x1, 0x1, 0x0, 0xb, 0x0, 0x1, 0x1, 0x0, 0x1, 0x4, 0x0,
	0x4, 0x1, 0xb, 0x0, 0x0, 0x1, 0x1, 0x1, 0x6, 0x0, 0x1, 0x0, 0xf, 0x0, 0x0, 0x1,
	0x0, 0x0, 0x0, 0xd, 0x0, 0x1, 0x0, 0x0, 0x5, 0x0, 0x0, 0x2, 0x0, 0x1,
}

// FuzzSchedule drives arbitrary byte-derived epochs through the scheduler
// and asserts the load-bearing contracts on every input: scheduling the
// same epoch twice, with fresh schedulers, gives the same schedule (a map
// iteration order leaking into the output breaks this), every schedule
// passes the serial-replay oracle, and the safety sweep picks its victims
// in the order of the pair-list reference. Both rank heuristics are
// exercised.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte{3, 0x05, 1, 2, 0x0C, 3, 4})
	f.Add([]byte{15, 0x0F, 0, 0, 1, 1, 0x0F, 1, 1, 0, 0})
	f.Add(twoAddressPairs)
	f.Fuzz(func(t *testing.T, data []byte) {
		snapshot, sims := check.EpochFromBytes(data)
		if len(sims) == 0 {
			return
		}
		for _, heur := range []core.RankHeuristic{core.RankMaxOutDegree, core.RankMinSubscript} {
			var outs [2]*types.Schedule
			for i := range outs {
				sch, err := core.NewScheduler(core.Config{Reorder: true, Heuristic: heur})
				if err != nil {
					t.Fatal(err)
				}
				if outs[i], _, err = sch.Schedule(sims); err != nil {
					t.Fatalf("heur=%d: %v", heur, err)
				}
			}
			if !outs[0].Equal(outs[1]) {
				t.Fatalf("heur=%d: the same epoch scheduled twice gives two schedules", heur)
			}
			if err := core.VerifySchedule(snapshot, sims, outs[0]); err != nil {
				t.Fatalf("heur=%d: oracle: %v", heur, err)
			}
			if got, want, n := core.CoverOrders(t, sims, core.Config{Reorder: true, Heuristic: heur}); !slices.Equal(got, want) {
				t.Fatalf("heur=%d: %d pairs, victim order %v, reference %v", heur, n, got, want)
			}
		}
	})
}

// FuzzSweepCover targets the safety sweep in isolation: it hands a
// byte-derived epoch byte-derived sequence numbers (seqs[i mod len], mod 8;
// 0 aborts the transaction before the sweep), which reach violation shapes
// a scheduled epoch reaches only by luck, and requires the victim order of
// the pair-list reference.
func FuzzSweepCover(f *testing.F) {
	f.Add([]byte{3, 0x05, 1, 2, 0x0C, 3, 4}, []byte{2, 2})
	f.Add([]byte{1, 0x0F, 0, 0, 1, 1, 0x0F, 1, 1, 0, 0, 0x05, 0, 1}, []byte{3, 3, 1})
	f.Add(twoAddressPairs, []byte{1, 4, 4, 2, 0, 7})
	f.Fuzz(func(t *testing.T, data, seqBytes []byte) {
		_, sims := check.EpochFromBytes(data)
		if len(sims) == 0 || len(seqBytes) == 0 {
			return
		}
		seqs := make([]types.Seq, len(sims))
		for i := range seqs {
			seqs[i] = types.Seq(seqBytes[i%len(seqBytes)] % 8)
		}
		if got, want, n := core.CoverOrdersAt(t, sims, seqs); !slices.Equal(got, want) {
			t.Fatalf("%d pairs, victim order %v, reference %v", n, got, want)
		}
	})
}

// FuzzRankDivision targets Algorithm 1 in isolation: on any byte-derived
// epoch, sorting-rank division must emit a permutation of the address
// vertices, deterministically, and — pick for pick — the sequence of the
// rescanning reference implementation.
func FuzzRankDivision(f *testing.F) {
	f.Add([]byte{7, 0x05, 0, 1, 0x05, 1, 2, 0x05, 2, 0})
	f.Add([]byte{1, 0x0F, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, sims := check.EpochFromBytes(data)
		if len(sims) == 0 {
			return
		}
		acg := core.BuildACG(sims)
		for _, heur := range []core.RankHeuristic{core.RankMaxOutDegree, core.RankMinSubscript} {
			ranks := core.RankAddresses(acg, heur)
			if len(ranks) != acg.NumAddresses() {
				t.Fatalf("heur=%d: %d ranks for %d addresses", heur, len(ranks), acg.NumAddresses())
			}
			seen := make([]bool, len(ranks))
			for _, v := range ranks {
				if v < 0 || v >= len(seen) || seen[v] {
					t.Fatalf("heur=%d: ranks are not a permutation: %v", heur, ranks)
				}
				seen[v] = true
			}
			again := core.RankAddresses(acg, heur)
			for i := range ranks {
				if ranks[i] != again[i] {
					t.Fatalf("heur=%d: rank division is nondeterministic at %d", heur, i)
				}
			}
			if ref := core.RefRankAddresses(acg, heur); !slices.Equal(ranks, ref) {
				t.Fatalf("heur=%d: ranks %v, reference %v", heur, ranks, ref)
			}
		}
	})
}

// TestCoverAbortsMatchesReferenceOnShapes runs the safety sweep's greedy
// cover against its reference over the differential harness's adversarial
// epoch shapes: the victim order must match choice for choice.
func TestCoverAbortsMatchesReferenceOnShapes(t *testing.T) {
	shapes := []check.GenConfig{
		{Shape: check.ShapeSingleHotKey, ReadRatio: 0.5},
		{Shape: check.ShapeZipf, Skew: 0.9, ReadRatio: 0.4},
		{Shape: check.ShapeCycleHeavy},
		{Shape: check.ShapeMultiWrite},
	}
	for _, gen := range shapes {
		pairs := 0
		for seed := int64(1); seed <= 12; seed++ {
			for _, size := range [][2]int{{60, 6}, {300, 24}, {900, 48}} {
				gen.Seed, gen.Txs, gen.Keys = seed, size[0], size[1]
				_, sims := check.Generate(gen)
				for _, cfg := range []core.Config{
					core.DefaultConfig(),
					{Reorder: false, Heuristic: core.RankMinSubscript},
				} {
					got, want, n := core.CoverOrders(t, sims, cfg)
					if !slices.Equal(got, want) {
						t.Fatalf("%v seed=%d txs=%d keys=%d reorder=%v: %d pairs, victim order %v, reference %v",
							gen.Shape, seed, gen.Txs, gen.Keys, cfg.Reorder, n, got, want)
					}
					pairs += n
				}
			}
		}
		if pairs == 0 {
			t.Errorf("%v: no epoch produced a violating pair, the shape tests nothing", gen.Shape)
		}
	}
}
