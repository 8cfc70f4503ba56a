package forest

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mdsprint/internal/dist"
)

// goldenSamples draws a training or held-out set over three features,
// one of them quantized to tenths so that split scans meet tied values,
// with a target linear in x whose slope and intercept switch on the
// features.
func goldenSamples(n int, seed uint64) []Sample {
	r := dist.NewRNG(seed)
	out := make([]Sample, n)
	for i := range out {
		fs := []float64{r.Float64() * 10, math.Round(r.Float64()*10) / 10, r.Float64() * 3}
		x := 2 + r.Float64()*20
		a, b := 1.3, 0.5
		if fs[0] > 6 {
			a = 0.8
		}
		if fs[1] > 0.4 {
			b += fs[2]
		}
		out[i] = Sample{Features: fs, X: x, Y: a*x + b + 0.3*r.NormFloat64()}
	}
	return out
}

// hashForest folds a trained forest into one FNV-64a digest: every node
// of every tree in preorder (a split's feature and threshold, a leaf's
// fit), the per-feature gains, and the forest's prediction at every
// held-out sample, floats by their exact bit patterns.
func hashForest(f *Forest, heldOut []Sample) uint64 {
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	fl := func(v float64) { u(math.Float64bits(v)) }
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			u(1)
			fl(n.fit.A)
			fl(n.fit.B)
			u(uint64(n.fit.N))
			return
		}
		u(0)
		u(uint64(n.feature))
		fl(n.threshold)
		walk(n.left)
		walk(n.right)
	}
	u(uint64(len(f.trees)))
	for _, t := range f.trees {
		u(uint64(len(t.features)))
		for _, fi := range t.features {
			u(uint64(fi))
		}
		walk(t.root)
	}
	for _, g := range f.gains {
		fl(g)
	}
	for _, s := range heldOut {
		fl(f.Predict(s.Features, s.X))
	}
	h := fnv.New64a()
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write(b)
	return h.Sum64()
}

// TestGoldenForest pins forest training bit for bit: every split and
// leaf fit of every tree, and every held-out prediction, under the
// default config, constant-mean leaves and a depth cap. A change to how
// trees are grown must leave these digests unchanged.
func TestGoldenForest(t *testing.T) {
	train := goldenSamples(400, 11)
	heldOut := goldenSamples(100, 12)
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"default", Config{Seed: 5}, 0x99474f7ac7d154a6},
		{"mean leaves", Config{Seed: 5, MeanLeaves: true}, 0xb028bdce61895bd6},
		{"max depth", Config{Seed: 5, MaxDepth: 4, MinLeaf: 5}, 0x972af7d67b094502},
	}
	for _, c := range cases {
		f, err := Train(train, names3, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashForest(f, heldOut); got != c.want {
			t.Errorf("%s: forest digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
