package bench

import (
	"fmt"

	"github.com/nezha-dag/nezha/internal/occ"
	"github.com/nezha-dag/nezha/internal/occda"
	"github.com/nezha-dag/nezha/internal/types"
)

// SchedulerComparison (extension) lines up the three registered schemes —
// Nezha, the CG baseline, and the OCC-DA hybrid — plus plain OCC as the
// floor, on identical epochs: abort rate, rescues, and the per-phase cost
// split. OCC-DA's interesting cell is the gap between its abort rate and
// plain OCC's (what per-victim dependency analysis recovers) versus the
// gap to Nezha (what batched sorting additionally recovers), priced by
// the cycle/rescue phase column.
func SchedulerComparison(o Options) (*Table, error) {
	t := &Table{
		Title:  "Extension — scheduler comparison: occ / occda / cg / nezha (concurrency 4)",
		Header: []string{"skew", "scheme", "abort_pct", "rescued", "graph_ms", "cycle_ms", "sort_ms", "cc_commit_ms"},
		Notes: []string{
			"rescued = OCC victims recovered by occda's dependency-aware second pass (avg/epoch)",
			"phase columns: graph = OCC pass / ACG build, cycle = rescue / cycle break, sort = renumber / rank division",
		},
	}
	schemes := []struct {
		name string
		mk   func() types.Scheduler
	}{
		{"occ", func() types.Scheduler { return occ.NewScheduler() }},
		{"occda", func() types.Scheduler { return occda.NewScheduler() }},
		{"cg", func() types.Scheduler { return cgScheduler(o) }},
		{"nezha", func() types.Scheduler { return nezhaScheduler() }},
	}
	for _, skew := range []float64{0.4, 0.6, 0.8, 1.0} {
		for _, scheme := range schemes {
			run, err := averageScheme(o, scheme.mk, 4, skew)
			if err != nil {
				return nil, err
			}
			if run.failed {
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%.1f", skew), scheme.name, "OOM", "-", "-", "-", "-", "-",
				})
				continue
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.1f", skew),
				scheme.name,
				pct(rate(run)),
				itoa(run.breakdown.Rescued / o.Reps),
				ms(float64(run.breakdown.Graph.Microseconds()) / 1000),
				ms(float64(run.breakdown.Cycle.Microseconds()) / 1000),
				ms(float64(run.breakdown.Sort.Microseconds()) / 1000),
				ms(float64((run.control + run.commit).Microseconds()) / 1000),
			})
		}
	}
	return t, nil
}
