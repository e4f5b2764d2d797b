package bench

import (
	"fmt"
)

// StagePipeline (extension) profiles the staged epoch pipeline: per-stage
// wall-clock share, queue depth, pool occupancy, and the cross-epoch
// overlap won by prevalidating the next epoch's signatures under the
// current commit.
func StagePipeline(o Options) (*Table, error) {
	t := &Table{
		Title:  "Extension — staged pipeline: per-stage latency, occupancy, and overlap",
		Header: []string{"skew", "stage", "total_ms", "tasks", "workers", "occupancy_pct", "overlap_ms"},
		Notes: []string{
			"occupancy = busy / (duration × workers); only fan-out stages keep busy spans",
			"overlap_ms: validation cost already paid in the background under the previous epoch's commit",
		},
	}
	const omega = 4
	for _, skew := range []float64{0.2, 0.6} {
		sum, err := runPipeline(o, omega, skew, nezhaScheduler(), int64(skew*100)+3)
		if err != nil {
			return nil, err
		}
		for _, st := range sum.Stages {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.1f", skew),
				st.Name,
				ms(float64(st.Duration.Microseconds()) / 1000),
				itoa(st.Tasks),
				itoa(st.Workers),
				pct(st.Occupancy()),
				ms(float64(st.Overlap.Microseconds()) / 1000),
			})
		}
	}
	return t, nil
}
