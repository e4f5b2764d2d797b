package bench

import "fmt"

// Table4 reproduces the paper's Table IV: overall transaction processing
// latency under the uniform workload (skew = 0), Serial vs Nezha, with
// Nezha's latency split into execution ("e") and concurrency control +
// commitment ("c") — the same split the paper prints.
func Table4(o Options) (*Table, error) {
	t := &Table{
		Title: "Table IV — processing latency (ms), uniform workload (skew 0)",
		Header: []string{
			"block_concurrency", "txs_per_epoch",
			"serial_ms", "nezha_execute_ms(e)", "nezha_control_commit_ms(c)", "speedup",
		},
		Notes: []string{
			fmt.Sprintf("block size %d txs; averaged over %d epochs", o.BlockSize, o.Reps),
			"paper (cluster, EVM+LevelDB): serial 4.7s..36.6s, nezha e 123..743ms, c 22..87ms; shapes (linear growth, order-of-magnitude gap) are the comparison target",
		},
	}
	for _, omega := range []int{2, 4, 6, 8, 10, 12} {
		serial, err := runPipeline(o, omega, 0, nil, int64(omega))
		if err != nil {
			return nil, err
		}
		nezha, err := runPipeline(o, omega, 0, nezhaScheduler(), int64(omega))
		if err != nil {
			return nil, err
		}
		reps := float64(o.Reps)
		serialMs := float64(serial.Total().Microseconds()) / 1000 / reps
		execMs := float64(nezha.Stage("execute").Duration.Microseconds()) / 1000 / reps
		ccMs := float64((nezha.Stage("schedule").Duration + nezha.Stage("commit").Duration).Microseconds()) / 1000 / reps
		speedup := serialMs / (execMs + ccMs)
		t.Rows = append(t.Rows, []string{
			itoa(omega),
			itoa(omega * o.BlockSize),
			ms(serialMs),
			ms(execMs),
			ms(ccMs),
			ftoa(speedup),
		})
	}
	return t, nil
}
