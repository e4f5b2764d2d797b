package bench

import (
	"errors"
	"fmt"

	"github.com/nezha-dag/nezha/internal/cg"
	"github.com/nezha-dag/nezha/internal/types"
)

// Fig12 reproduces Fig. 12: effective system throughput (committed
// transactions per second) of Serial, CG, and Nezha across block
// concurrency 2–12 at skew 0.2 and 0.6. The paper sets the expected block
// generation latency to 1 second, so an epoch is produced every
// max(1 s, processing latency): schemes faster than the block interval are
// consensus-bound (throughput grows with concurrency), slower schemes are
// processing-bound (throughput stalls or collapses).
func Fig12(o Options) (*Table, error) {
	t := &Table{
		Title:  "Fig 12 — effective throughput (tps)",
		Header: []string{"skew", "block_concurrency", "serial_tps", "cg_tps", "nezha_tps"},
		Notes: []string{
			fmt.Sprintf("block interval %.1f s; full pipeline (MiniVM execution + scheduling + MPT commit); %d epochs per point", o.BlockIntervalSec, o.Reps),
			"paper shape: serial flat (~60 tps); CG grows then collapses at skew 0.6 ω=12; nezha near-linear in concurrency",
		},
	}
	for _, skew := range []float64{0.2, 0.6} {
		for _, omega := range []int{2, 4, 6, 8, 10, 12} {
			row := []string{fmt.Sprintf("%.1f", skew), itoa(omega)}
			for _, mk := range []func() types.Scheduler{
				func() types.Scheduler { return nil }, // serial
				func() types.Scheduler { return cgScheduler(o) },
				func() types.Scheduler { return nezhaScheduler() },
			} {
				sum, err := runPipeline(o, omega, skew, mk(), int64(omega*100)+int64(skew*10))
				if errors.Is(err, cg.ErrCycleExplosion) {
					// The CG baseline legitimately dies under high
					// contention, as the paper's did of OOM.
					row = append(row, "OOM")
					continue
				}
				if err != nil {
					return nil, err
				}
				perEpochSec := sum.Total().Seconds() / float64(sum.Epochs)
				if perEpochSec < o.BlockIntervalSec {
					perEpochSec = o.BlockIntervalSec
				}
				tps := float64(sum.Committed) / float64(sum.Epochs) / perEpochSec
				row = append(row, fmt.Sprintf("%.0f", tps))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
