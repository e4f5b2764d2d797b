package bench

import (
	"fmt"
	"time"

	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/occ"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// AblationReordering (A1) isolates the §IV-D enhancement: abort rates with
// and without reordering across high skews at block concurrency 1.
func AblationReordering(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation A1 — reordering (§IV-D) on/off: abort rate (%), concurrency 1",
		Header: []string{"skew", "nezha_full_pct", "nezha_no_reorder_pct", "rescued_pp"},
	}
	plain := func() types.Scheduler {
		return core.MustNewScheduler(core.Config{Reorder: false, Heuristic: core.RankMaxOutDegree})
	}
	for _, skew := range []float64{0.6, 0.8, 0.9, 1.0} {
		full, err := averageScheme(o, func() types.Scheduler { return nezhaScheduler() }, 1, skew)
		if err != nil {
			return nil, err
		}
		off, err := averageScheme(o, plain, 1, skew)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", skew),
			pct(rate(full)),
			pct(rate(off)),
			fmt.Sprintf("%.2f", 100*(rate(off)-rate(full))),
		})
	}
	return t, nil
}

// AblationRankHeuristic (A2) compares Algorithm 1's max-out-degree cycle
// break against the naive min-subscript pick: abort rate and rank-division
// latency under contention.
func AblationRankHeuristic(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation A2 — rank-division cycle heuristic: max-out-degree vs min-subscript",
		Header: []string{"skew", "heuristic", "abort_pct", "rank_division_ms"},
	}
	heuristics := []struct {
		name string
		h    core.RankHeuristic
	}{
		{"max-out-degree", core.RankMaxOutDegree},
		{"min-subscript", core.RankMinSubscript},
	}
	for _, skew := range []float64{0.8, 1.0} {
		for _, h := range heuristics {
			mk := func() types.Scheduler {
				return core.MustNewScheduler(core.Config{Reorder: true, Heuristic: h.h})
			}
			run, err := averageScheme(o, mk, 4, skew)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.1f", skew),
				h.name,
				pct(rate(run)),
				ms(float64(run.breakdown.Cycle.Microseconds()) / 1000),
			})
		}
	}
	return t, nil
}

// AblationCommitConcurrency (A3) measures what the group-concurrent commit
// buys: the same Nezha schedule committed with group concurrency vs one
// transaction at a time (the CG baseline's commit discipline).
func AblationCommitConcurrency(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation A3 — commit concurrency: group-concurrent vs serial apply of the same schedule",
		Header: []string{"block_concurrency", "txs", "group_commit_ms", "serial_commit_ms", "speedup"},
	}
	for _, omega := range []int{4, 8, 12} {
		snapshot, sims, err := buildSims(o, omega, 0, int64(omega))
		if err != nil {
			return nil, err
		}
		sched, _, err := nezhaScheduler().Schedule(sims)
		if err != nil {
			return nil, err
		}
		seed := make([]types.WriteEntry, 0, len(snapshot))
		for k, v := range snapshot {
			seed = append(seed, types.WriteEntry{Key: k, Value: v})
		}
		timeCommit := func(serial bool) (time.Duration, error) {
			db := statedb.Open(kvstore.NewMemory(), mpt.EmptyRoot)
			if _, err := db.Commit(seed); err != nil {
				return 0, err
			}
			start := time.Now()
			if serial {
				byID := make(map[types.TxID]*types.SimResult, len(sims))
				for _, sim := range sims {
					byID[sim.Tx.ID] = sim
				}
				for _, id := range sched.SerialOrder() {
					if _, err := db.Commit(byID[id].Writes); err != nil {
						return 0, err
					}
				}
			} else {
				if _, err := node.CommitSchedule(db, sims, sched, o.Workers); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}
		group, err := timeCommit(false)
		if err != nil {
			return nil, err
		}
		serial, err := timeCommit(true)
		if err != nil {
			return nil, err
		}
		gMs := float64(group.Microseconds()) / 1000
		sMs := float64(serial.Microseconds()) / 1000
		t.Rows = append(t.Rows, []string{
			itoa(omega), itoa(omega * o.BlockSize), ms(gMs), ms(sMs), ftoa(sMs / gMs),
		})
	}
	return t, nil
}

// AblationGraphConstruction (A4) isolates graph construction: ACG vs
// pairwise CG build cost as the transaction count grows (complements
// Fig. 10).
func AblationGraphConstruction(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation A4 — graph construction only: ACG (O(u·N)) vs CG (pairwise)",
		Header: []string{"skew", "txs", "acg_build_ms", "cg_build_ms", "cg_over_acg"},
	}
	for _, skew := range []float64{0.2, 0.6} {
		for _, omega := range []int{4, 8, 12} {
			nz, err := averageScheme(o, func() types.Scheduler { return nezhaScheduler() }, omega, skew)
			if err != nil {
				return nil, err
			}
			cgRun, err := averageScheme(o, func() types.Scheduler { return cgScheduler(o) }, omega, skew)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%.1f", skew), itoa(omega * o.BlockSize),
				ms(float64(nz.breakdown.Graph.Microseconds()) / 1000)}
			if cgRun.failed {
				row = append(row, "OOM", "-")
			} else {
				a := float64(nz.breakdown.Graph.Microseconds()) / 1000
				c := float64(cgRun.breakdown.Graph.Microseconds()) / 1000
				row = append(row, ms(c), ftoa(c/a))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// AblationWriteMix (A5, an extension beyond the paper) varies the fraction
// of read-only operations in the SmallBank mix at fixed skew: read-heavy
// epochs shrink conflict surfaces (reads never conflict with reads, §IV-C
// rule 3), so abort rates and CG's cycle pressure should fall as the mix
// gets more read-only.
func AblationWriteMix(o Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation A5 — read-only mix sensitivity (skew 0.8, concurrency 4)",
		Header: []string{"readonly_pct", "nezha_abort_pct", "nezha_ms", "cg_ms_or_oom"},
		Notes:  []string{"extension beyond the paper's fixed uniform op mix"},
	}
	const (
		omega = 4
		skew  = 0.8
	)
	for _, ratio := range []float64{0.0, 0.25, 0.5, 0.75, 0.9} {
		var (
			nzControl time.Duration
			committed int
			aborted   int
		)
		cgFailed := false
		var cgControl time.Duration
		for rep := 0; rep < o.Reps; rep++ {
			cfg := workload.Config{
				Seed:           o.Seed + int64(rep+1)*6151,
				Accounts:       o.Accounts,
				Skew:           skew,
				InitialBalance: 10_000,
				ReadOnlyRatio:  ratio,
			}
			gen, err := workload.NewGenerator(cfg)
			if err != nil {
				return nil, err
			}
			txs := gen.Txs(omega * o.BlockSize)
			for i, tx := range txs {
				tx.ID = types.TxID(i)
			}
			snapshot, err := gen.Snapshot(txs)
			if err != nil {
				return nil, err
			}
			sims, err := workload.Simulate(txs, snapshot)
			if err != nil {
				return nil, err
			}
			run, err := runScheme(o, nezhaScheduler(), snapshot, sims)
			if err != nil {
				return nil, err
			}
			nzControl += run.control + run.commit
			committed += run.committed
			aborted += run.aborted
			cgOut, err := runScheme(o, cgScheduler(o), snapshot, sims)
			if err != nil {
				return nil, err
			}
			if cgOut.failed {
				cgFailed = true
			} else {
				cgControl += cgOut.control + cgOut.commit
			}
		}
		rate := 0.0
		if committed+aborted > 0 {
			rate = float64(aborted) / float64(committed+aborted)
		}
		row := []string{
			fmt.Sprintf("%.0f", 100*ratio),
			pct(rate),
			ms(float64(nzControl.Microseconds()) / 1000 / float64(o.Reps)),
		}
		if cgFailed {
			row = append(row, "OOM")
		} else {
			row = append(row, ms(float64(cgControl.Microseconds())/1000/float64(o.Reps)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// OCCAbortComparison (extension) measures the motivating claim of §I: plain
// OCC (Fabric-style, Table II) pays for its zero ordering cost with abort
// rates that the paper cites as exceeding 40% under contention, while Nezha
// orders conflicting transactions instead of discarding them.
func OCCAbortComparison(o Options) (*Table, error) {
	t := &Table{
		Title:  "Extension — plain OCC vs CG vs Nezha abort rate (%), concurrency 4",
		Header: []string{"skew", "occ_abort_pct", "cg_abort_pct", "nezha_abort_pct"},
		Notes:  []string{"paper §I cites >40% OCC abort rates under contention [Chacko et al.]"},
	}
	for _, skew := range []float64{0.4, 0.6, 0.8, 1.0} {
		occRun, err := averageScheme(o, func() types.Scheduler { return occ.NewScheduler() }, 4, skew)
		if err != nil {
			return nil, err
		}
		cgRun, err := averageScheme(o, func() types.Scheduler { return cgScheduler(o) }, 4, skew)
		if err != nil {
			return nil, err
		}
		nz, err := averageScheme(o, func() types.Scheduler { return nezhaScheduler() }, 4, skew)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%.1f", skew), pct(rate(occRun))}
		if cgRun.failed {
			row = append(row, "OOM")
		} else {
			row = append(row, pct(rate(cgRun)))
		}
		row = append(row, pct(rate(nz)))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
