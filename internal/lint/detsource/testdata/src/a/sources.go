// Ambient entropy in the zero-hop corpus: clock, global rand and
// environment reads are flagged where they occur.
package a

import (
	"math/rand"
	"os"
	"time"
)

func clocks() {
	_ = time.Now() // want `time.Now in determinism-critical package a`
	start := time.Unix(0, 0)
	_ = time.Since(start) // want `time.Since in determinism-critical`
}

func globals() {
	_ = rand.Intn(4)       // want `rand.Intn in determinism-critical`
	_ = os.Getenv("NEZHA") // want `os.Getenv in determinism-critical`
}

func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // constructors build seeded sources: fine
	return r.Intn(4)                    // method on a threaded *rand.Rand: fine
}

func fixedTime() time.Time {
	return time.Unix(42, 0) // not a clock read
}

func annotatedClock() time.Time {
	return time.Now() //nezha:nondeterminism-ok wall clock only feeds local timing stats, never the schedule
}
