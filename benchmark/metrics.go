package main

import "sort"

// metricDef names one metric of the contract in BENCHMARK.json; the smoke
// test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Note   string  // what it measures, for the printed table and the README
}

// endToEnd are what a user of the node sees. Measured with tracing off;
// every value but peak_rss_mb is the median of the run's trials, and the
// closed segment's three timings and setup_s are scaled to reference host
// speed (probe.go). README.md says where the bounds come from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "generation, signing, store open, genesis commit, at reference host speed"},
	{"goodput_tps", "1/s", "higher", 0.25, "closed segment: committed tx per second at reference host speed, median of 5 consecutive slices"},
	{"epoch_p50_ms", "ms", "lower", 0.25, "closed segment: ProcessEpoch wall time on full epochs at reference host speed (paper Table IV / Fig 9)"},
	{"epoch_p90_ms", "ms", "lower", 0.25, "closed segment: ProcessEpoch wall time at reference host speed, 90th percentile"},
	{"commit_p50_ms", "ms", "lower", 0.15, "paced segment: due time to commit, committed transactions only"},
	{"commit_p95_ms", "ms", "lower", 0.25, "paced segment: due time to commit, 95th percentile"},
	{"commit_share", "ratio", "higher", 0.02, "closed segment: committed / attempted (1 - abort share); repeats exactly for a seed"},
	{"alloc_kb_per_tx", "KB", "lower", 0.05, "closed segment: heap bytes allocated per attempted transaction"},
	{"peak_rss_mb", "MB", "lower", 0.25, "VmHWM of the whole run"},
}

// perLayer come from the traced run. Times are µs unless the name says
// otherwise; no bounds, they explain the end-to-end numbers.
var perLayer = []metricDef{
	{Name: "mempool.admit_us_per_tx", Unit: "us", Better: "lower", Note: "Pool.AdmitBatch (verifies signatures on the signed workload)"},
	{Name: "mempool.assemble_us_per_tx", Unit: "us", Better: "lower", Note: "Pool.Assemble"},
	{Name: "mempool.markincluded_us_per_tx", Unit: "us", Better: "lower", Note: "Pool.MarkIncluded"},
	{Name: "mempool.refused_share", Unit: "ratio", Better: "lower", Note: "admission refusals / attempted"},
	{Name: "crypto.verify_us_per_tx", Unit: "us", Better: "lower", Note: "crypto.VerifyTx on one goroutine (on a signed copy of one block where the workload is unsigned)"},
	{Name: "consensus.mine_us_per_block", Unit: "us", Better: "lower", Note: "consensus.Mine, first attempt only"},
	{Name: "dag.submit_us_per_block", Unit: "us", Better: "lower", Note: "Node.SubmitBlock: PoW check and ledger add"},
	{Name: "dag.epoch_blocks_us_per_epoch", Unit: "us", Better: "lower", Note: "Ledger.EpochBlocks"},
	{Name: "types.new_epoch_us_per_tx", Unit: "us", Better: "lower", Note: "types.NewEpoch: flatten, dedupe, assign ids"},
	{Name: "rlp.encode_block_us_per_tx", Unit: "us", Better: "lower", Note: "types.EncodeBlock"},
	{Name: "rlp.decode_block_us_per_tx", Unit: "us", Better: "lower", Note: "types.DecodeBlock"},
	{Name: "vm.execute_us_per_tx", Unit: "us", Better: "lower", Note: "vm.Execute on one goroutine over StateDB.View()"},
	{Name: "vm.exec_failed_share", Unit: "ratio", Better: "lower", Note: "executions that reverted or ran out of gas"},
	{Name: "mvcc.read_us_per_key", Unit: "us", Better: "lower", Note: "View.Get over the predicted read keys, before execution warms them"},
	{Name: "mvcc.cache_hit_share", Unit: "ratio", Better: "higher", Note: "node pass: version-cache hits / reads"},
	{Name: "mvcc.prefetch_hit_share", Unit: "ratio", Better: "higher", Note: "node pass: prefetched keys a later read used / keys prefetched"},
	{Name: "mvcc.chain_depth_mean", Unit: "count", Better: "lower", Note: "node pass: mean version-chain depth seen by GC (bucket upper bounds)"},
	{Name: "core.acg_us_per_tx", Unit: "us", Better: "lower", Note: "core.BuildACG"},
	{Name: "core.rank_us_per_tx", Unit: "us", Better: "lower", Note: "core.RankAddresses"},
	{Name: "core.sort_us_per_tx", Unit: "us", Better: "lower", Note: "sequential Schedule minus BuildACG and RankAddresses"},
	{Name: "core.schedule_us_per_tx", Unit: "us", Better: "lower", Note: "Scheduler.Schedule at default parallelism"},
	{Name: "core.schedule_par_speedup", Unit: "ratio", Better: "higher", Note: "Schedule at parallelism 1 / at default, same inputs"},
	{Name: "core.acg_units_per_tx", Unit: "count", Better: "lower", Note: "read/write units in the ACG per transaction"},
	{Name: "core.acg_addrs_per_epoch", Unit: "count", Better: "lower", Note: "ACG vertices per epoch"},
	{Name: "core.groups_per_epoch", Unit: "count", Better: "lower", Note: "commit groups per epoch"},
	{Name: "core.rescued_per_epoch", Unit: "count", Better: "higher", Note: "transactions reordering saved from abort"},
	{Name: "core.abort_share", Unit: "ratio", Better: "lower", Note: "scheduler aborts / scheduled"},
	{Name: "core.verify_us_per_tx", Unit: "us", Better: "lower", Note: "core.VerifySchedule"},
	{Name: "statedb.commit_us_per_write", Unit: "us", Better: "lower", Note: "node.CommitSchedule per distinct key written"},
	{Name: "mpt.commit_us_per_write", Unit: "us", Better: "lower", Note: "CommitSchedule minus the store time inside it"},
	{Name: "kvstore.get_calls_per_tx", Unit: "count", Better: "lower", Note: "node pass: Store.Get calls; 0 while the trie keeps every node in memory"},
	{Name: "kvstore.apply_us_per_epoch", Unit: "us", Better: "lower", Note: "node pass: Store.Apply time per epoch"},
	{Name: "kvstore.apply_ops_per_tx", Unit: "count", Better: "lower", Note: "node pass: operations in applied batches (trie nodes, persisted blocks)"},
	{Name: "kvstore.bytes_written_per_tx", Unit: "B", Better: "lower", Note: "node pass: WAL bytes appended; 0 on the memory store"},
	{Name: "kvstore.disk_bytes_per_tx", Unit: "B", Better: "lower", Note: "node pass: store directory size at the end; 0 on the memory store"},
	{Name: "kvstore.tables", Unit: "count", Better: "lower", Note: "node pass: live SSTables at the end; 0 on the memory store"},
	{Name: "node.validate_us_per_tx", Unit: "us", Better: "lower", Note: "StageStat validate"},
	{Name: "node.execute_us_per_tx", Unit: "us", Better: "lower", Note: "StageStat execute"},
	{Name: "node.schedule_us_per_tx", Unit: "us", Better: "lower", Note: "StageStat schedule"},
	{Name: "node.prefetch_us_per_tx", Unit: "us", Better: "lower", Note: "StageStat prefetch (the kick; the walk itself is in overlap)"},
	{Name: "node.commit_us_per_tx", Unit: "us", Better: "lower", Note: "StageStat commit"},
	{Name: "node.overlap_us_per_tx", Unit: "us", Better: "higher", Note: "background prevalidation and prefetch hidden under the previous commit"},
	{Name: "node.unattributed_us_per_tx", Unit: "us", Better: "lower", Note: "ProcessEpoch wall minus its stages: persist, finalize, root history, metrics"},
	{Name: "node.execute_speedup", Unit: "ratio", Better: "higher", Note: "one-goroutine vm.Execute time / execute-stage wall"},
	{Name: "driver.gen_late_p95_ms", Unit: "ms", Better: "lower", Note: "paced segment: how late blocks left the generator"},
	{Name: "driver.steer_us_per_block", Unit: "us", Better: "lower", Note: "extra consensus.Mine attempts to land on the block's chain"},
	{Name: "driver.other_us_per_tx", Unit: "us", Better: "lower", Note: "driver loop time outside every timed call"},
	{Name: "driver.slice_goodput_drift", Unit: "ratio", Better: "higher", Note: "goodput of the last slice / the first: below 1 means it slows as the run grows"},
	{Name: "driver.trace_overhead_share", Unit: "ratio", Better: "lower", Note: "1 - traced goodput / untraced goodput over the same epochs"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower", Note: "node pass: stop-the-world pause total"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Note: "node pass: completed GC cycles"},
	{Name: "runtime.allocs_per_tx", Unit: "count", Better: "lower", Note: "node pass: heap objects allocated per transaction"},
}

// durableOnly are reported and written to result.json where they exist but
// are not part of the BENCHMARK.json contract, which needs every metric on
// every workload.
var durableOnly = []metricDef{
	{Name: "kvstore.open_ms", Unit: "ms", Better: "lower", Note: "OpenLSM on the closed store: WAL replay, table load"},
	{Name: "node.restore_ms", Unit: "ms", Better: "lower", Note: "node.New over the reopened store: block decode, ledger replay, recovery audit"},
}

// unscaled are the measured run's record of the host-speed scaling probe.go
// describes: written to result.json and printed, outside the contract.
var unscaled = []metricDef{
	{Name: "host_probe_us", Unit: "us", Better: "lower", Note: "closed segment: median time of the reference kernel; the scaled metrics assume 600"},
	{Name: "setup_raw_s", Unit: "s", Better: "lower", Note: "setup_s before scaling to reference host speed"},
	{Name: "goodput_raw_tps", Unit: "1/s", Better: "higher", Note: "goodput_tps before scaling to reference host speed"},
	{Name: "epoch_p50_raw_ms", Unit: "ms", Better: "lower", Note: "epoch_p50_ms before scaling to reference host speed"},
}

var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, set := range [][]metricDef{endToEnd, perLayer, durableOnly, unscaled} {
		for _, d := range set {
			m[d.Name] = d
		}
	}
	return m
}()

// quantile interpolates linearly between order statistics; sorted must be
// ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles returns what Python's statistics.quantiles(values, n=4) does
// (the exclusive method), so spreads computed here match the driver's.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
