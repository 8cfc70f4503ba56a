// In-package sources: the wall clock, the global math/rand source and a
// map range, each at its own line and column.

package detflow

import (
	"math/rand"
	"time"
)

func stamp() float64 {
	now := time.Now()
	return float64(now.Unix()) + rand.Float64()
}

func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
