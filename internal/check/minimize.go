package check

// maxMinimizeProbes bounds the predicate invocations one minimization may
// spend: each probe schedules the candidate epoch twice and replays it, so
// an unbounded ddmin on a large epoch could dominate a CI run.
const maxMinimizeProbes = 2000

// Minimize shrinks a failing index set with the ddmin algorithm [Zeller &
// Hildebrandt 2002]: starting from all of [0, n), it repeatedly tries to
// drop chunks of the current set, keeping any reduction on which failing
// still reports true, and refining the chunk granularity when no chunk can
// be dropped. The result is 1-minimal up to the probe budget: a (locally)
// smallest subset that still fails.
//
// failing must be deterministic and must report true for the full set;
// callers hand it candidate subsets of the original epoch's transaction
// indices, always in ascending order.
func Minimize(n int, failing func([]int) bool) []int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	if n <= 1 {
		return cur
	}

	probes := 0
	probe := func(idx []int) bool {
		if probes >= maxMinimizeProbes {
			return false
		}
		probes++
		return failing(idx)
	}

	gran := 2
	for len(cur) > 1 && probes < maxMinimizeProbes {
		size := (len(cur) + gran - 1) / gran
		reduced := false
		for start := 0; start < len(cur); start += size {
			end := start + size
			if end > len(cur) {
				end = len(cur)
			}
			// Complement of one chunk.
			cand := make([]int, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if len(cand) > 0 && probe(cand) {
				cur = cand
				if gran > 2 {
					gran--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if gran >= len(cur) {
				break
			}
			gran *= 2
			if gran > len(cur) {
				gran = len(cur)
			}
		}
	}
	return cur
}
