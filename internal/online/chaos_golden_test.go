package online

import (
	"fmt"
	"testing"

	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
)

// chaosGolden pins every built-in scenario's replay: the decision
// timeline fingerprint, the degradation summary and the decision
// ledger's rolling chain. A change that claims unchanged chaos outputs
// must leave this table byte-for-byte as it is.
var chaosGolden = map[string]string{
	"baseline":         "fp=4177e4ef1c1f3711 max=0 end=0 demotions=0 promotions=0 chain=676e7ffdf66ea798",
	"burst-storm":      "fp=c66d6f85a1cac1ee max=1 end=0 demotions=1 promotions=1 chain=9dd6c63fc45cba29",
	"model-divergence": "fp=a712e3ecfad261fb max=2 end=0 demotions=2 promotions=2 chain=9f55e0d286f7e5d0",
	"rate-drift":       "fp=974051c5657f6fec max=0 end=0 demotions=0 promotions=0 chain=c5ba22befe7767e5",
	"search-outage":    "fp=9a9e05cf77824653 max=1 end=1 demotions=1 promotions=0 chain=128b2481e6a2b599",
}

func TestChaosGolden(t *testing.T) {
	scs := fault.Scenarios()
	if len(scs) != len(chaosGolden) {
		t.Fatalf("%d built-in scenarios, %d pinned", len(scs), len(chaosGolden))
	}
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			led := NewDecisionLedger()
			res, err := RunChaos(sc, ChaosOptions{Metrics: obs.NewRegistry(), Ledger: led})
			if err != nil {
				t.Fatalf("RunChaos: %v", err)
			}
			got := fmt.Sprintf("fp=%s max=%d end=%d demotions=%d promotions=%d chain=%s",
				res.Fingerprint(), res.MaxLevel, res.EndLevel, res.Demotions, res.Promotions, led.Chain())
			want, ok := chaosGolden[sc.Name]
			if !ok {
				t.Fatalf("scenario %q is not pinned; got %s", sc.Name, got)
			}
			if got != want {
				t.Fatalf("replay drifted from its pin:\n got %s\nwant %s", got, want)
			}
		})
	}
}
