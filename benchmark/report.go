package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// env stamps a result file with where it was measured; two files are
// comparable only when their stamps agree.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func environment() env {
	e := env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest stamp there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	return e
}

// resultFile is out/result.json: the stamp and every run made.
type resultFile struct {
	Env     env          `json:"env"`
	Seconds int          `json:"seconds"`
	Traced  bool         `json:"traced"`
	Runs    []*runResult `json:"runs"`
}

func (f *resultFile) write(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printResult prints every metric of a run by name, with unit and sample
// count, in the registry's order.
func printResult(w io.Writer, r *runResult) {
	c := r.Counts
	kind := "measured"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s  seed %d  %s run\n", r.Workload, r.Seed, kind)
	fmt.Fprintf(w, "  attempted %d = committed %d + aborted %d + exec-failed %d + refused %d; failed %d; %d epochs; root %s\n",
		c.Attempted, c.Committed, c.Aborted, c.ExecFailed, c.Refused, c.Failed, c.Epochs, c.FinalRoot)
	for _, set := range [][]metricDef{endToEnd, unscaled, perLayer, durableOnly} {
		for _, d := range set {
			m, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("  bound %.0f%%", d.Bound*100)
			}
			fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%-8d %s is better%s  # %s\n", d.Name, m.Value, m.Unit, m.N, d.Better, bound, d.Note)
		}
	}
	for _, f := range r.Flags {
		fmt.Fprintf(w, "  FLAG %s\n", f)
	}
}
