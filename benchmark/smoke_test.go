package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/fail"
)

// smokeSizing is every workload at four closed epochs: enough to pass
// through every code path and every check, small enough for -race.
var smokeSizing = sizing{
	Trials: 2, ClosedEpochs: 4, WarmupEpochs: 1, PacedEpochs: 2,
	TwinEpochs: 4, TraceEpochs: 4, TracePacedEpochs: 2,
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			tmp := t.TempDir()
			res, err := measuredRun(w, 1, smokeSizing, tmp)
			if err != nil {
				t.Fatalf("measured run: %v", err)
			}
			requireMetrics(t, res, endToEnd)
			if res.Counts.Failed != 0 {
				t.Errorf("measured run: %d failed operations, want 0", res.Counts.Failed)
			}

			tracePath := filepath.Join(tmp, "trace.json")
			res, err = tracedRun(w, 1, smokeSizing, tmp, tracePath)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			requireMetrics(t, res, perLayer)
			if w.Durable {
				requireMetrics(t, res, durableOnly)
			}
			var trace struct {
				Totals map[string]nameTotal `json:"totals"`
				Spans  []span               `json:"spans"`
			}
			raw, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &trace); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			for _, name := range append(callNames[:], "driver.epoch", "node.stage.commit") {
				if trace.Totals[name].Count == 0 {
					t.Errorf("trace has no %s span", name)
				}
			}
			if tot := trace.Totals["node.ProcessEpoch"]; tot.SelfNs <= 0 || tot.SelfNs >= tot.TotalNs {
				t.Errorf("ProcessEpoch self time %d of %d: stage spans are not its children", tot.SelfNs, tot.TotalNs)
			}
		})
	}
}

func requireMetrics(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("metric %s missing", d.Name)
		}
	}
	// The contract line must carry exactly the contract's metrics.
	var line struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	raw, err := contractLine(res)
	if err != nil {
		t.Fatalf("contract line: %v", err)
	}
	if err := json.Unmarshal([]byte(raw), &line); err != nil {
		t.Fatalf("contract line: %v", err)
	}
	want := endToEnd
	if res.Traced {
		want = perLayer
	}
	if !line.Correct || line.Attempted < 1 || line.Failed == nil || len(line.Metrics) != len(want) {
		t.Errorf("contract line %+v: want correct, attempted >= 1, failed, and %d metrics", line, len(want))
	}
}

// The twin replay is only worth having if it fails when a node reports a
// wrong root: arm the existing diverge-root failpoint on the twin alone.
func TestTwinReplayCatchesDivergedRoot(t *testing.T) {
	w := &workloads[0]
	fail.Enable(fail.NodeDivergeRoot, fail.Spec{Mode: fail.ModeError, Tag: w.Name + "-twin", After: 2, Count: 1})
	defer fail.Reset()
	_, err := measuredRun(w, 1, smokeSizing, t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "twin: epoch 3 root") {
		t.Fatalf("run with a diverged twin root returned %v, want the twin check to fail at epoch 3", err)
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in metrics.go
// and workloads.go are what the program does. They must say the same.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var contract struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, program is sized for %d", contract.RunSeconds, referenceSeconds)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the contract, %d in the program", len(contract.Workloads), len(workloads))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: contract %q, program %q (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the contract, %d in the program", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounded && g.Bound != d.Bound) {
				t.Errorf("%s %d: contract %+v, program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", contract.EndToEnd, endToEnd, true)
	same("per_layer", contract.PerLayer, perLayer, false)
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A host that runs the probe twice as slowly halves every scale factor, and
// one probe that a GC cycle landed in moves none.
func TestHostScale(t *testing.T) {
	recs := make([]epochRecord, 12)
	for i := range recs {
		recs[i].probe = 2 * referenceProbe
	}
	recs[5].probe = 20 * referenceProbe
	for i, f := range hostScale(recs) {
		if f != 0.5 {
			t.Errorf("scale[%d] = %v, want 0.5", i, f)
		}
	}
	if got := sliceGoodput([]epochRecord{{iter: time.Second, committed: 100}}, []float64{0.5}, 1); got[0] != 200 {
		t.Errorf("scaled goodput = %v, want 200", got[0])
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(goodput, p50 []float64, failed int) *resultFile {
		f := &resultFile{Seconds: referenceSeconds}
		for i := range goodput {
			r := newResult(&workloads[0], 1, false)
			r.set("goodput_tps", goodput[i], 5)
			r.set("epoch_p50_ms", p50[i], 100)
			r.Counts = runCounts{Attempted: 1000, Failed: failed}
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	// goodput falls 30% with tight runs: regressed. epoch p50 rises 20%
	// but b's own runs spread over 40%: unresolved. One failed operation
	// where the parent had none: regressed.
	if err := mk([]float64{1000, 1010, 990, 1000}, []float64{10, 10, 10, 10}, 0).write(a); err != nil {
		t.Fatal(err)
	}
	if err := mk([]float64{700, 705, 695, 700}, []float64{9, 11, 13, 15}, 1).write(b); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("compare reported no regression")
	}
	for metric, verdict := range map[string]string{"goodput_tps": "regressed", "epoch_p50_ms": "unresolved", "failed_share": "regressed"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+metric+" ") {
				found = true
				if !strings.HasSuffix(line, verdict) {
					t.Errorf("%s: want %s, got %q", metric, verdict, line)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in:\n%s", metric, out.String())
		}
	}
}
