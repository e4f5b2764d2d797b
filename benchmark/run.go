package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/types"
)

// measurement is one reported number. N is the sample count behind it.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runCounts is the per-workload account written to result.json; for one
// seed it must repeat exactly.
type runCounts struct {
	Attempted  int    `json:"attempted"`
	Committed  int    `json:"committed"`
	Aborted    int    `json:"aborted"`
	ExecFailed int    `json:"exec_failed"`
	Refused    int    `json:"refused"`
	Failed     int    `json:"failed"`
	Epochs     int    `json:"epochs"`
	FinalRoot  string `json:"final_root"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Traced   bool                   `json:"traced"`
	Counts   runCounts              `json:"counts"`
	Metrics  map[string]measurement `json:"metrics"`
	// Flags marks results that should not be trusted as they stand, e.g.
	// "saturated" when the paced generator never kept its schedule.
	Flags []string `json:"flags,omitempty"`
}

// times scales the account of one trial to k identical trials.
func (c runCounts) times(k int) runCounts {
	c.Attempted *= k
	c.Committed *= k
	c.Aborted *= k
	c.ExecFailed *= k
	c.Refused *= k
	c.Failed *= k
	c.Epochs *= k
	return c
}

func (r *runResult) set(name string, value float64, n int) {
	def, ok := metricByName[name]
	if !ok {
		panic("benchmark: unregistered metric " + name) // a bug in this package, never an input
	}
	r.Metrics[name] = measurement{Value: value, Unit: def.Unit, N: n}
}

func newResult(w *workload, seed int64, traced bool) *runResult {
	return &runResult{Workload: w.Name, Seed: seed, Traced: traced, Metrics: make(map[string]measurement)}
}

func (r *runResult) setCounts(c counts, root types.Hash) {
	r.Counts = runCounts{
		Attempted: c.attempted, Committed: c.committed, Aborted: c.aborted,
		ExecFailed: c.execFailed, Refused: c.refused, Failed: c.failed(),
		Epochs: c.epochs, FinalRoot: root.Hex(),
	}
}

// setUp generates the inputs and builds the system, and returns how long
// that took. It ends with a collection so that the segment after it starts
// from the same heap on every run.
func setUp(w *workload, seed int64, txs int, tmp string, wrap func(kvstore.Store) kvstore.Store) (*inputs, *system, time.Duration, error) {
	start := time.Now()
	in, err := w.generate(seed, txs)
	if err != nil {
		return nil, nil, 0, err
	}
	sys, err := w.newSystem(in, tmp, wrap)
	if err != nil {
		return nil, nil, 0, err
	}
	took := time.Since(start)
	runtime.GC()
	return in, sys, took, nil
}

// measuredRun is the untraced run that every end-to-end metric comes from.
// It makes sz.Trials independent trials on the same inputs and reports, for
// every metric, the median of the trials' values.
//
// Why trials and not one long pass: on the reference box two identical
// passes in two processes differ by 10-15 % for their whole length (where
// the kernel happens to place the heap, what the host's other tenants do to
// the shared cache), while repeated passes inside one process agree within
// 5 %. Each trial therefore starts by handing its predecessor's memory back
// to the operating system, so it gets fresh pages, and the median across
// trials discards the unlucky one. Counts do not have luck: every trial must
// reproduce the first one's counts and final root exactly.
func measuredRun(w *workload, seed int64, sz sizing, tmp string) (*runResult, error) {
	probeAlloc() // measured now, while nothing else allocates
	var trials []*runResult
	for i := 0; i < sz.Trials; i++ {
		debug.FreeOSMemory()
		t, err := runTrial(w, seed, sz, tmp, i == sz.Trials-1)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i+1, err)
		}
		if i > 0 && t.Counts != trials[0].Counts {
			return nil, fmt.Errorf("trial %d: counts %+v differ from trial 1's %+v: the run is not deterministic",
				i+1, t.Counts, trials[0].Counts)
		}
		trials = append(trials, t)
	}
	res := newResult(w, seed, false)
	// Every trial had exactly these counts, so the run's are a multiple.
	res.Counts = trials[0].Counts.times(len(trials))
	for name := range trials[0].Metrics {
		var values []float64
		n := 0
		for _, t := range trials {
			values = append(values, t.Metrics[name].Value)
			n += t.Metrics[name].N
		}
		res.set(name, median(values), n)
	}
	for _, t := range trials {
		if len(t.Flags) > 0 {
			res.Flags = t.Flags // "saturated" if any trial was
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, 1)
	return res, nil
}

// runTrial makes one trial: set-up, closed segment, paced segment on the
// same node, accounting check. The twin replay and the reopen check, which
// measure nothing, run on the last trial only.
func runTrial(w *workload, seed int64, sz sizing, tmp string, last bool) (*runResult, error) {
	total := (sz.ClosedEpochs + sz.PacedEpochs) * w.epochTxs()
	in, sys, setup, err := setUp(w, seed, total, tmp, nil)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res := newResult(w, seed, false)

	d := newDriver(sys, in.txs, nil)
	var warm snapshot
	if err := d.runClosed(sz.ClosedEpochs, sz.WarmupEpochs, func() { warm = d.snapshot() }); err != nil {
		return nil, fmt.Errorf("closed segment: %w", err)
	}
	end := d.snapshot()
	closed := d.records[warm.records:end.records]
	cc := end.counts.sub(warm.counts)

	// Closed-segment durations are reported at reference host speed; see
	// probe.go. The *_raw values and the probe time show what was applied.
	scale := hostScale(closed)
	slices := sliceGoodput(closed, scale, 5)
	res.set("goodput_tps", median(slices), len(slices))
	res.set("goodput_raw_tps", median(sliceGoodput(closed, nil, 5)), len(slices))
	walls, raw, probes := make([]float64, len(closed)), make([]float64, len(closed)), make([]float64, len(closed))
	for i, r := range closed {
		raw[i] = ms(r.wall)
		walls[i] = raw[i] * scale[i]
		probes[i] = us(r.probe)
	}
	sort.Float64s(walls)
	res.set("epoch_p50_ms", quantile(walls, 0.50), len(walls))
	res.set("epoch_p90_ms", quantile(walls, 0.90), len(walls))
	res.set("epoch_p50_raw_ms", median(raw), len(raw))
	res.set("host_probe_us", median(probes), len(probes))
	// Set-up ends where the closed segment starts, so the segment's median
	// probe is the best-sampled reading of the host's speed during it.
	res.set("setup_s", setup.Seconds()*us(referenceProbe)/median(probes), 1)
	res.set("setup_raw_s", setup.Seconds(), 1)
	res.set("commit_share", float64(cc.committed)/float64(cc.attempted), cc.attempted)
	probeBytes, _ := probeAlloc()
	res.set("alloc_kb_per_tx", (float64(end.mem.TotalAlloc-warm.mem.TotalAlloc)-probeBytes*float64(len(closed)))/1024/float64(cc.attempted), cc.attempted)

	if err := d.runPaced(sz.PacedEpochs, float64(w.PacedTPS)); err != nil {
		return nil, fmt.Errorf("paced segment: %w", err)
	}
	sort.Float64s(d.latencies)
	res.set("commit_p50_ms", quantile(d.latencies, 0.50), len(d.latencies))
	res.set("commit_p95_ms", quantile(d.latencies, 0.95), len(d.latencies))
	sort.Float64s(d.lateness)
	if saturated(w, d.lateness) {
		res.Flags = []string{"saturated"}
	}

	res.setCounts(d.counts, sys.node.StateRoot())
	if err := checkAccounting(d, sz.ClosedEpochs+sz.PacedEpochs); err != nil {
		return nil, err
	}
	if !last {
		return res, nil
	}
	if err := replayTwin(w, in, sys.node, sz.TwinEpochs); err != nil {
		return nil, err
	}
	if w.Durable {
		if _, _, err := reopen(w, in, sys); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// saturated reports whether the paced generator spent the segment more than
// an epoch behind its schedule (lateness sorted ascending). One goroutine
// both generates and processes, so a block can leave up to one ProcessEpoch
// late by construction, and a compaction stall makes a few blocks later
// still: the 95th percentile (driver.gen_late_p95_ms) shows those. A median
// beyond one epoch interval means the offered rate was never sustained and
// the commit latencies measure a growing backlog, not the system.
func saturated(w *workload, lateness []float64) bool {
	epochInterval := float64(w.epochTxs()) / float64(w.PacedTPS) * 1000
	return quantile(lateness, 0.50) > epochInterval
}

// sliceGoodput splits the measured epochs into k equal consecutive slices
// and returns each slice's committed transactions per second of driver
// wall time (look-ahead mining included: that is the steady-state loop),
// each iteration's time multiplied by its scale factor when scale is non-nil.
func sliceGoodput(recs []epochRecord, scale []float64, k int) []float64 {
	out := make([]float64, 0, k)
	for s := 0; s < k; s++ {
		lo, hi := s*len(recs)/k, (s+1)*len(recs)/k
		var wall float64
		committed := 0
		for i, r := range recs[lo:hi] {
			f := 1.0
			if scale != nil {
				f = scale[lo+i]
			}
			wall += r.iter.Seconds() * f
			committed += r.committed
		}
		if wall > 0 {
			out = append(out, float64(committed)/wall)
		}
	}
	return out
}

// checkAccounting is the identity every run must satisfy: every attempted
// transaction has exactly one outcome and the epochs are contiguous from 1.
func checkAccounting(d *driver, epochs int) error {
	c := d.counts
	if c.attempted != c.committed+c.aborted+c.execFailed+c.refused {
		return fmt.Errorf("accounting: attempted %d != committed %d + aborted %d + exec-failed %d + refused %d",
			c.attempted, c.committed, c.aborted, c.execFailed, c.refused)
	}
	if c.epochs != epochs || len(d.records) != epochs || c.attempted != epochs*d.sys.w.epochTxs() {
		return fmt.Errorf("accounting: %d epochs and %d transactions processed, want %d and %d",
			c.epochs, c.attempted, epochs, epochs*d.sys.w.epochTxs())
	}
	for i, r := range d.records {
		if r.epoch != uint64(i+1) {
			return fmt.Errorf("accounting: record %d is epoch %d: epochs not contiguous", i, r.epoch)
		}
		if got, ok := d.sys.node.RootAt(r.epoch); !ok || got != r.root {
			return fmt.Errorf("accounting: epoch %d root %s differs from the node's record", r.epoch, r.root.Short())
		}
	}
	if d.sys.pool.Len() != 0 {
		return fmt.Errorf("accounting: %d transactions left in the pool", d.sys.pool.Len())
	}
	return nil
}

// replayTwin feeds the first `epochs` epochs of src's ledger into a fresh
// node that re-checks every schedule with core.VerifySchedule, and requires
// the same root after every epoch: the measured node's fast path must
// agree with a replica that trusts nothing.
func replayTwin(w *workload, in *inputs, src *node.Node, epochs int) error {
	cfg := w.nodeConfig(in.genesis)
	cfg.VerifySchedules = true
	cfg.Persist = false
	twin, err := node.New(w.Name+"-twin", kvstore.NewMemory(), cfg)
	if err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	submit := func(e uint64) error {
		blocks, ok := src.Ledger().EpochBlocks(e)
		if !ok {
			return fmt.Errorf("twin: source ledger has no epoch %d", e)
		}
		// Mining order within an epoch is chain order, and a block commits
		// to the tips that existed when it was mined.
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].Header.ChainID < blocks[j].Header.ChainID })
		for _, b := range blocks {
			if err := twin.SubmitBlock(b); err != nil {
				return fmt.Errorf("twin: submit epoch %d chain %d: %w", e, b.Header.ChainID, err)
			}
		}
		return nil
	}
	last := src.NextEpoch() - 1
	if err := submit(1); err != nil {
		return err
	}
	for e := uint64(1); e <= uint64(epochs) && e <= last; e++ {
		if e < last {
			if err := submit(e + 1); err != nil {
				return err
			}
		}
		r, err := twin.ProcessEpoch(e)
		if err != nil {
			return fmt.Errorf("twin: epoch %d: %w", e, err)
		}
		want, _ := src.RootAt(e)
		if r.StateRoot != want {
			return fmt.Errorf("twin: epoch %d root %s, measured node has %s", e, r.StateRoot.Short(), want.Short())
		}
	}
	return nil
}

// reopen closes the durable store, opens it again and restores a node from
// it; the restored node must stand exactly where the old one stopped. It
// returns how long the open and the restore took.
func reopen(w *workload, in *inputs, sys *system) (open, restore time.Duration, err error) {
	wantRoot, wantNext := sys.node.StateRoot(), sys.node.NextEpoch()
	if err := sys.store.Close(); err != nil {
		return 0, 0, fmt.Errorf("reopen: close: %w", err)
	}
	start := time.Now()
	store, err := w.openStore(sys.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	open = time.Since(start)
	sys.store = store
	start = time.Now()
	n, err := node.New(w.Name, store, w.nodeConfig(in.genesis))
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: restore: %w", err)
	}
	restore = time.Since(start)
	if n.StateRoot() != wantRoot || n.NextEpoch() != wantNext {
		return 0, 0, fmt.Errorf("reopen: restored node at epoch %d root %s, closed at epoch %d root %s",
			n.NextEpoch(), n.StateRoot().Short(), wantNext, wantRoot.Short())
	}
	sys.node = n
	return open, restore, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
