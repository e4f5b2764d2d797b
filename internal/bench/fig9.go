package bench

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/nezha-dag/nezha/internal/cg"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
)

// schemeRun measures one scheduler over one prepared epoch: concurrency-
// control latency, commit latency (group-concurrent apply + trie flush),
// sub-phase breakdown, and abort statistics. failed is true when the CG
// baseline exceeded its cycle budget (the paper's OOM).
type schemeRun struct {
	control   time.Duration
	commit    time.Duration
	breakdown types.PhaseBreakdown
	committed int
	aborted   int
	failed    bool
}

// runScheme executes scheduling + commitment against an MPT-backed state
// seeded with the epoch snapshot.
func runScheme(o Options, sched types.Scheduler, snapshot map[types.Key][]byte, sims []*types.SimResult) (schemeRun, error) {
	var out schemeRun

	db := statedb.Open(kvstore.NewMemory(), mpt.EmptyRoot)
	seed := make([]types.WriteEntry, 0, len(snapshot))
	for k, v := range snapshot {
		seed = append(seed, types.WriteEntry{Key: k, Value: v})
	}
	// Seed order reaches the state trie; keep the run byte-reproducible.
	sort.Slice(seed, func(i, j int) bool { return seed[i].Key.Less(seed[j].Key) })
	if _, err := db.Commit(seed); err != nil {
		return out, err
	}

	start := time.Now()
	schedule, breakdown, err := sched.Schedule(sims)
	out.control = time.Since(start)
	if errors.Is(err, cg.ErrCycleExplosion) {
		out.failed = true
		return out, nil
	}
	if err != nil {
		return out, err
	}
	out.breakdown = breakdown
	out.committed = schedule.CommittedCount()
	out.aborted = schedule.AbortedCount()

	start = time.Now()
	if _, err := node.CommitSchedule(db, sims, schedule, o.Workers); err != nil {
		return out, err
	}
	out.commit = time.Since(start)
	return out, nil
}

// averageScheme repeats runScheme over o.Reps epochs (fresh workloads) and
// averages. A single failed rep marks the whole cell failed, as one OOM
// killed the paper's CG process.
func averageScheme(o Options, mk func() types.Scheduler, omega int, skew float64) (schemeRun, error) {
	var sum schemeRun
	for rep := 0; rep < o.Reps; rep++ {
		snapshot, sims, err := buildSims(o, omega, skew, int64(rep+1))
		if err != nil {
			return sum, err
		}
		r, err := runScheme(o, mk(), snapshot, sims)
		if err != nil {
			return sum, err
		}
		if r.failed {
			return schemeRun{failed: true}, nil
		}
		sum.control += r.control
		sum.commit += r.commit
		sum.breakdown.Add(r.breakdown)
		sum.committed += r.committed
		sum.aborted += r.aborted
	}
	sum.control /= time.Duration(o.Reps)
	sum.commit /= time.Duration(o.Reps)
	sum.breakdown.Graph /= time.Duration(o.Reps)
	sum.breakdown.Cycle /= time.Duration(o.Reps)
	sum.breakdown.Sort /= time.Duration(o.Reps)
	sum.committed /= o.Reps
	sum.aborted /= o.Reps
	return sum, nil
}

// Fig9 reproduces Fig. 9: concurrency-control + commitment latency of
// Nezha vs the CG baseline across block concurrency 2–12, one sub-table
// row set per skew in {0.2, 0.4, 0.6, 0.8}. Cells where CG exceeds its
// cycle budget print as "OOM", matching the paper's reported failure at
// skew 0.8 beyond concurrency 4.
func Fig9(o Options) (*Table, error) {
	t := &Table{
		Title:  "Fig 9 — concurrency control + commitment latency (ms)",
		Header: []string{"skew", "block_concurrency", "txs", "nezha_ms", "cg_ms", "cg_over_nezha"},
		Notes: []string{
			fmt.Sprintf("block size %d; %d reps; CG cycle budget %d (OOM emulation)", o.BlockSize, o.Reps, o.MaxCycles),
			"paper shape: nezha < 100 ms and flat; CG superlinear, >10 s at skew 0.6 ω=12, OOM at skew 0.8 ω>4",
		},
	}
	for _, skew := range []float64{0.2, 0.4, 0.6, 0.8} {
		for _, omega := range []int{2, 4, 6, 8, 10, 12} {
			nz, err := averageScheme(o, func() types.Scheduler { return nezhaScheduler() }, omega, skew)
			if err != nil {
				return nil, err
			}
			cgRun, err := averageScheme(o, func() types.Scheduler { return cgScheduler(o) }, omega, skew)
			if err != nil {
				return nil, err
			}
			nzMs := float64((nz.control + nz.commit).Microseconds()) / 1000
			row := []string{
				fmt.Sprintf("%.1f", skew),
				itoa(omega),
				itoa(omega * o.BlockSize),
				ms(nzMs),
			}
			if cgRun.failed {
				row = append(row, "OOM", "-")
			} else {
				cgMs := float64((cgRun.control + cgRun.commit).Microseconds()) / 1000
				row = append(row, ms(cgMs), ftoa(cgMs/nzMs))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
