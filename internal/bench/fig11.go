package bench

import (
	"fmt"

	"github.com/nezha-dag/nezha/internal/types"
)

// Fig11 reproduces Fig. 11: the transaction abort rate of Nezha vs the CG
// baseline under high data contention (skew 0.6–1.0) at block concurrency 1
// — the paper pins concurrency to 1 because CG tends to die of memory
// exhaustion at larger concurrency under these skews.
func Fig11(o Options) (*Table, error) {
	t := &Table{
		Title:  "Fig 11 — transaction abort rate (%), block concurrency 1",
		Header: []string{"skew", "nezha_abort_pct", "cg_abort_pct", "nezha_advantage_pp"},
		Notes: []string{
			fmt.Sprintf("block size %d; %d reps per point", o.BlockSize, o.Reps),
			"paper shape: both low at 0.6-0.7, both rise steeply after; nezha below CG by ~3.5 pp at skew 1.0 (reordering, §IV-D)",
		},
	}
	const omega = 1
	for _, skew := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
		nz, err := averageScheme(o, func() types.Scheduler { return nezhaScheduler() }, omega, skew)
		if err != nil {
			return nil, err
		}
		cgRun, err := averageScheme(o, func() types.Scheduler { return cgScheduler(o) }, omega, skew)
		if err != nil {
			return nil, err
		}
		nzRate := rate(nz)
		row := []string{fmt.Sprintf("%.1f", skew), pct(nzRate)}
		if cgRun.failed {
			row = append(row, "OOM", "-")
		} else {
			cgRate := rate(cgRun)
			row = append(row, pct(cgRate), fmt.Sprintf("%.2f", 100*(cgRate-nzRate)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func rate(r schemeRun) float64 {
	total := r.committed + r.aborted
	if total == 0 {
		return 0
	}
	return float64(r.aborted) / float64(total)
}
