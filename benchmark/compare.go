package main

import (
	"fmt"
	"io"
)

// compareFiles judges result file b against result file a (the parent):
// per workload and end-to-end metric it applies the metric's direction and
// bound to the two medians and prints one row. A metric whose run-to-run
// spread in either file is wider than its bound is "unresolved", never
// "ok": the files cannot tell a regression from noise there. It reports
// whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	if a.Traced != b.Traced || a.Seconds != b.Seconds {
		return false, fmt.Errorf("files are not comparable: traced %v/%v, seconds %d/%d", a.Traced, b.Traced, a.Seconds, b.Seconds)
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "warning: environment stamps differ\n  a: %+v\n  b: %+v\n", a.Env, b.Env)
	}
	defs := endToEnd
	if a.Traced {
		defs = append(append([]metricDef(nil), perLayer...), durableOnly...)
	}
	fmt.Fprintf(w, "%-26s %-32s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "worse by", "spread", "bound", "verdict")
	for i := range workloads {
		name := workloads[i].Name
		ra, rb := runsOf(a, name), runsOf(b, name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range defs {
			va, vb := valuesOf(ra, d.Name), valuesOf(rb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			spread := spreadOf(va)
			if s := spreadOf(vb); s > spread {
				spread = s
			}
			verdict := "info" // per-layer metrics carry no bound
			if d.Bound > 0 {
				switch {
				case spread > d.Bound:
					verdict = "unresolved"
				case worse > d.Bound:
					verdict = "regressed"
					regressed = true
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(w, "%-26s %-32s %14.4f %14.4f %+8.1f%% %7.1f%% %7.1f%%  %s\n",
				name, d.Name, ma, mb, worse*100, spread*100, d.Bound*100, verdict)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			regressed = true
		}
		fmt.Fprintf(w, "%-26s %-32s %14.6f %14.6f %9s %8s %8s  %s\n", name, "failed_share", fa, fb, "", "", "", verdict)
	}
	return regressed, nil
}

func runsOf(f *resultFile, workload string) []*runResult {
	var out []*runResult
	for _, r := range f.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(runs []*runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spreadOf is the interquartile range as a share of the median; zero for a
// single run, which has no spread to show.
func spreadOf(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 < 0 {
		q2 = -q2
	}
	return ratio(q3-q1, q2)
}

func failedShare(runs []*runResult) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Counts.Attempted
		failed += r.Counts.Failed
	}
	return ratio(float64(failed), float64(attempted))
}
