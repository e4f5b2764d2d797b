// Command benchmark is the repository's one performance instrument: it
// drives a real node.Node along the public admission→commit path on four
// SmallBank workloads and reports end-to-end metrics (tracing off) or a
// per-layer ledger (-trace 1). README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract it answers to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", referenceSeconds, "sizes the run: segment lengths scale linearly from their values at 20")
		trace        = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics instead of end-to-end ones")
		runs         = flag.Int("runs", 1, "repeat each workload this many times (for -compare spreads)")
		out          = flag.String("out", "out", "directory for result.json, traces and the durable store's scratch files")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds >= 1, -runs >= 1 and -trace 0 or 1"))
	}
	if err := run(*workloadFlag, *seed, *seconds, *runs, *trace == 1, *out); err != nil {
		fatal(err)
	}
}

// run makes the selected runs, prints each, and writes out/result.json.
func run(names string, seed int64, seconds, runs int, traced bool, out string) error {
	selected, err := selectWorkloads(names)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	file := resultFile{Env: environment(), Seconds: seconds, Traced: traced}
	for _, w := range selected {
		for r := 0; r < runs; r++ {
			sz := w.sizeFor(seconds)
			var res *runResult
			if traced {
				res, err = tracedRun(w, seed, sz, tmp, filepath.Join(out, "trace_"+w.Name+".json"))
			} else {
				res, err = measuredRun(w, seed, sz, tmp)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printResult(os.Stdout, res)
			file.Runs = append(file.Runs, res)
		}
	}
	if err := file.write(filepath.Join(out, "result.json")); err != nil {
		return err
	}
	// The contract line: one workload, one run, one JSON object, last.
	if len(file.Runs) == 1 {
		line, err := contractLine(file.Runs[0])
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	return nil
}

func selectWorkloads(name string) ([]*workload, error) {
	if name == "all" {
		all := make([]*workload, len(workloads))
		for i := range workloads {
			all[i] = &workloads[i]
		}
		return all, nil
	}
	var out []*workload
	for _, n := range strings.Split(name, ",") {
		w, err := findWorkload(n)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// contractLine is the last line of standard output BENCHMARK.json's driver
// parses: the contract's metrics only, each as measured.
func contractLine(r *runResult) (string, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		m := r.Metrics[d.Name]
		metrics[d.Name] = value{m.Value, m.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.Counts.Attempted, r.Counts.Failed, metrics})
	return string(raw), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
