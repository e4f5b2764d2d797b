package bench

import "fmt"

// Experiment couples a name with its runner.
type Experiment struct {
	Name string
	Desc string
	Run  func(Options) (*Table, error)
}

// Experiments lists every regenerable table and figure, in presentation
// order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I: theoretical conflicts vs block concurrency", Table1},
		{"table4", "Table IV: serial vs Nezha processing latency (skew 0)", Table4},
		{"fig9", "Fig 9: CC+commit latency, Nezha vs CG, skew 0.2-0.8", Fig9},
		{"fig10", "Fig 10: CC sub-phase latency breakdown", Fig10},
		{"fig11", "Fig 11: abort rate vs skew, concurrency 1", Fig11},
		{"fig12", "Fig 12: effective throughput, Serial/CG/Nezha", Fig12},
		{"ablation-reorder", "A1: reordering on/off", AblationReordering},
		{"ablation-rank", "A2: rank-division heuristic", AblationRankHeuristic},
		{"ablation-commit", "A3: commit concurrency", AblationCommitConcurrency},
		{"ablation-graph", "A4: ACG vs CG construction", AblationGraphConstruction},
		{"ablation-writemix", "A5 (extension): read-only mix sensitivity", AblationWriteMix},
		{"occ-abort", "Extension: plain OCC vs CG vs Nezha abort rates", OCCAbortComparison},
		{"scheduler-comparison", "Extension: occ/occda/cg/nezha abort + phase breakdown", SchedulerComparison},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", name)
}
