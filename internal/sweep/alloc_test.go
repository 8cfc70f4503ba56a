package sweep

import (
	"testing"

	"mdsprint/internal/dist"
)

func TestFingerprintZeroAllocs(t *testing.T) {
	r := dist.NewRNG(9)
	samples := make([]float64, 1500)
	for i := range samples {
		samples[i] = 50 + 100*r.Float64()
	}
	p := baseParams()
	p.Service = dist.NewEmpirical(samples)
	for i := 0; i < 3; i++ {
		mustKey(t, p, 2)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Fingerprint(p, 2); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs %v", allocs)
}
