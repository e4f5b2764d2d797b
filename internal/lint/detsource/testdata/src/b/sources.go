// Outside the critical set, ambient entropy that reaches no sink is
// allowed.
package b

import (
	"math/rand"
	"time"
)

func free() int {
	_ = time.Now()
	return rand.Intn(4)
}
