package check

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/nezha-dag/nezha/internal/cg"
)

// Profile is a named adversarial workload family. The Gen field carries the
// shape parameters; Seed, Txs, and Keys are filled per trial by Run.
type Profile struct {
	Name string
	Gen  GenConfig
}

// Profiles returns the harness's standard battery, ordered from benign to
// degenerate. "mixed" is last so a sweep that dies early still covered the
// targeted shapes.
func Profiles() []Profile {
	return []Profile{
		{"uniform", GenConfig{Shape: ShapeUniform, ReadRatio: 0.5}},
		{"zipf-hot", GenConfig{Shape: ShapeZipf, Skew: 0.9, ReadRatio: 0.5}},
		{"single-hot-key", GenConfig{Shape: ShapeSingleHotKey, ReadRatio: 0.5}},
		{"cycle-heavy", GenConfig{Shape: ShapeCycleHeavy}},
		{"multi-write-rescue", GenConfig{Shape: ShapeMultiWrite, ReadRatio: 0.2}},
		{"mixed", GenConfig{Shape: ShapeMixed, Skew: 0.8, ReadRatio: 0.5,
			StatelessProb: 0.05, MultiWriteProb: 0.15, MissingProb: 0.2}},
	}
}

// ProfileByName resolves a profile by its Name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range Profiles() {
		names = append(names, p.Name)
	}
	return Profile{}, fmt.Errorf("check: unknown profile %q (have %s)", name, strings.Join(names, ", "))
}

// RunConfig configures a seed sweep.
type RunConfig struct {
	// StartSeed is the first seed; trial i uses StartSeed+i per profile.
	StartSeed int64
	// Seeds is the number of seeds per profile. Defaults to 10.
	Seeds int
	// Txs and Keys override the per-trial epoch dimensions (0 keeps the
	// GenConfig defaults: 256 txs over 64 keys).
	Txs, Keys int
	// Profiles defaults to Profiles().
	Profiles []Profile
	// MaxFailures stops the sweep early; 0 means 5.
	MaxFailures int
	// CG overrides the baseline budget (nil means cg.DefaultConfig());
	// CI uses a tighter TimeBudget so contended trials that explode the
	// baseline's cycle enumeration surface as CGSkipped quickly.
	CG *cg.Config
	// SkipCG drops the baseline from every trial.
	SkipCG bool
	// Verbose, when non-nil, receives one progress line per trial.
	Verbose io.Writer
}

// ProfileStats aggregates the trials of one profile.
type ProfileStats struct {
	Trials      int
	Committed   int
	Aborted     int
	Rescued     int
	CGCommitted int
	CGSkipped   int
}

// Report is the outcome of a sweep.
type Report struct {
	Trials     int
	Failures   []*Failure
	PerProfile map[string]*ProfileStats
}

// Failed reports whether any trial diverged.
func (r *Report) Failed() bool { return len(r.Failures) > 0 }

// Summary renders the per-profile table plus failures, stable across runs.
func (r *Report) Summary() string {
	var b strings.Builder
	names := make([]string, 0, len(r.PerProfile))
	for n := range r.PerProfile {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.PerProfile[n]
		fmt.Fprintf(&b, "%-20s trials=%-3d committed=%-6d aborted=%-5d rescued=%-4d cg-committed=%-6d cg-skipped=%d\n",
			n, s.Trials, s.Committed, s.Aborted, s.Rescued, s.CGCommitted, s.CGSkipped)
	}
	fmt.Fprintf(&b, "total trials: %d, failures: %d\n", r.Trials, len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f.Error())
	}
	return b.String()
}

// Run sweeps Seeds seeds through every profile, running the full
// differential trial on each generated epoch.
func Run(cfg RunConfig) *Report {
	if cfg.Seeds == 0 {
		cfg.Seeds = 10
	}
	if cfg.MaxFailures == 0 {
		cfg.MaxFailures = 5
	}
	profiles := cfg.Profiles
	if len(profiles) == 0 {
		profiles = Profiles()
	}
	rep := &Report{PerProfile: make(map[string]*ProfileStats)}
	for _, p := range profiles {
		stats := rep.PerProfile[p.Name]
		if stats == nil {
			stats = &ProfileStats{}
			rep.PerProfile[p.Name] = stats
		}
		for i := 0; i < cfg.Seeds; i++ {
			gen := p.Gen
			gen.Seed = cfg.StartSeed + int64(i)
			if cfg.Txs != 0 {
				gen.Txs = cfg.Txs
			}
			if cfg.Keys != 0 {
				gen.Keys = cfg.Keys
			}
			res := RunTrial(TrialConfig{Gen: gen, CG: cfg.CG, SkipCG: cfg.SkipCG})
			rep.Trials++
			stats.Trials++
			stats.Committed += res.Committed
			stats.Aborted += res.Aborted
			stats.Rescued += res.Rescued
			stats.CGCommitted += res.CGCommitted
			if res.CGSkipped {
				stats.CGSkipped++
			}
			if cfg.Verbose != nil {
				status := "ok"
				if res.Failure != nil {
					status = "FAIL " + string(res.Failure.Kind)
				}
				fmt.Fprintf(cfg.Verbose, "%-20s seed=%-4d committed=%-5d aborted=%-4d %s\n",
					p.Name, gen.Seed, res.Committed, res.Aborted, status)
			}
			if res.Failure != nil {
				res.Failure.Profile = p.Name
				rep.Failures = append(rep.Failures, res.Failure)
				if len(rep.Failures) >= cfg.MaxFailures {
					return rep
				}
			}
		}
	}
	return rep
}
