package ann

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mdsprint/internal/dist"
)

// goldenRows draws rows over four features: two uniform, one quantized
// to halves so that several rows share a value, and one constant, whose
// zero spread takes normalise's unit-deviation branch. The target has a
// step, so hidden units switch between ReLU's two branches across rows.
func goldenRows(n int, seed uint64) ([][]float64, []float64) {
	r := dist.NewRNG(seed)
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		x := []float64{r.Float64() * 4, r.Float64()*2 - 1, math.Round(r.Float64()*6) / 2, 7}
		y := 2*x[0] - x[1]*x[2] + 1
		if x[0] > 2.5 {
			y += 6
		}
		X[i], Y[i] = x, y+0.1*r.NormFloat64()
	}
	return X, Y
}

// hashNetwork folds a trained network into one FNV-64a digest: its
// normalisation statistics, every layer's weights and biases in storage
// order, and its prediction at every held-out row, floats by their exact
// bit patterns.
func hashNetwork(n *Network, heldOut [][]float64) uint64 {
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	fl := func(vs ...float64) {
		for _, v := range vs {
			u(math.Float64bits(v))
		}
	}
	fl(n.inMean...)
	fl(n.inStd...)
	fl(n.outMu, n.outSd)
	u(uint64(len(n.layers)))
	for _, l := range n.layers {
		u(uint64(l.in))
		u(uint64(l.out))
		fl(l.w...)
		fl(l.b...)
	}
	for _, row := range heldOut {
		fl(n.Predict(row))
	}
	h := fnv.New64a()
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write(b)
	return h.Sum64()
}

// TestGoldenTrain pins ann.Train bit for bit across depths, widths,
// epoch counts, batch sizes (one that divides the rows, one that leaves
// a short last batch, single-sample and whole-set batches), learning
// rates and seeds, the paper's 10x100 default architecture included.
// A faster training loop must leave every digest unchanged: each
// gradient element still sums over the batch's samples in batch order.
func TestGoldenTrain(t *testing.T) {
	X, Y := goldenRows(120, 21)
	heldOut, _ := goldenRows(40, 22)
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"1x8 batch 16", Config{HiddenLayers: 1, Width: 8, Epochs: 40, BatchSize: 16, Seed: 1}, 0xf420c1b4896d5740},
		{"3x16 batch 7", Config{HiddenLayers: 3, Width: 16, Epochs: 20, BatchSize: 7, Seed: 2}, 0x88f754cf45826652},
		{"2x32 batch 1", Config{HiddenLayers: 2, Width: 32, Epochs: 5, BatchSize: 1, Seed: 3}, 0x8c90e6db889ec05f},
		{"4x12 whole set", Config{HiddenLayers: 4, Width: 12, Epochs: 30, BatchSize: 500, LearningRate: 3e-3, Seed: 4}, 0x346105088cca3707},
		{"default 10x100", Config{Epochs: 2, Seed: 5}, 0x94d18809a2dcef80},
	}
	for _, c := range cases {
		n, err := Train(X, Y, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashNetwork(n, heldOut); got != c.want {
			t.Errorf("%s: network digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
