package bench

import (
	"fmt"

	"github.com/nezha-dag/nezha/internal/types"
)

// Fig10 reproduces Fig. 10: the latency of each concurrency-control
// sub-phase at block concurrency 4 under skew 0.5 and 0.6. The phases line
// up as the paper draws them — graph construction; cycle detection &
// removal (CG) vs sorting-rank division (Nezha); topological sorting (CG)
// vs transaction sorting (Nezha) — plus the commitment latency.
func Fig10(o Options) (*Table, error) {
	t := &Table{
		Title: "Fig 10 — concurrency-control sub-phase latency (ms), block concurrency 4",
		Header: []string{
			"skew", "scheme", "graph_construction_ms",
			"cycle_or_rank_ms", "sorting_ms", "commit_ms", "total_ms",
		},
		Notes: []string{
			"cycle_or_rank: CG = cycle detection+removal (Johnson), Nezha = sorting-rank division",
			"paper shape: CG dominated by graph construction at skew 0.5 and by cycle handling at 0.6; Nezha's graph construction negligible, sorting stable",
		},
	}
	const omega = 4
	for _, skew := range []float64{0.5, 0.6} {
		for _, scheme := range []struct {
			name string
			mk   func() types.Scheduler
		}{
			{"nezha", func() types.Scheduler { return nezhaScheduler() }},
			{"cg", func() types.Scheduler { return cgScheduler(o) }},
		} {
			run, err := averageScheme(o, scheme.mk, omega, skew)
			if err != nil {
				return nil, err
			}
			if run.failed {
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%.1f", skew), scheme.name, "OOM", "OOM", "OOM", "-", "-",
				})
				continue
			}
			graphMs := float64(run.breakdown.Graph.Microseconds()) / 1000
			cycleMs := float64(run.breakdown.Cycle.Microseconds()) / 1000
			sortMs := float64(run.breakdown.Sort.Microseconds()) / 1000
			commitMs := float64(run.commit.Microseconds()) / 1000
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.1f", skew),
				scheme.name,
				ms(graphMs),
				ms(cycleMs),
				ms(sortMs),
				ms(commitMs),
				ms(graphMs + cycleMs + sortMs + commitMs),
			})
		}
	}
	return t, nil
}
