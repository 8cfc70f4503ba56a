// Package forest implements the paper's random decision forest regressor
// (Section 2.4, Figure 5): bagged, deep, unpruned binary regression trees
// built with ID3-style variance-reduction splits (Equation 3), each tree
// over a random subset of the predictive features, with linear-regression
// leaves of the form mu_e = a * mu_m + b. The forest's prediction averages
// the regression parameters voted by each tree, exactly as Figure 5's
// worked example shows.
//
// The implementation is generic over float feature vectors so tests can
// exercise it on synthetic functions; internal/core maps profiled
// conditions into features.
package forest

import (
	"fmt"
	"math"
	"sort"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/stats"
)

// treesTrained counts per-tree training progress in the default registry,
// so a long TrainHybrid shows forest construction advancing live.
var treesTrained = obs.Default().Counter("mdsprint_forest_trees_trained_total", "regression trees trained across all forests")

// Sample is one training row: predictive features, the leaf-regression
// abscissa x (the marginal sprint rate), and the target y (the effective
// sprint rate).
type Sample struct {
	Features []float64
	X        float64
	Y        float64
}

// Config tunes forest construction.
type Config struct {
	// Trees is the ensemble size; the paper uses 10 (Table 1A).
	Trees int
	// MinLeaf is the minimum samples per leaf (default 3).
	MinLeaf int
	// MaxDepth caps tree depth; 0 means unlimited. The paper grows
	// deep trees and eschews pruning, so the default is unlimited.
	MaxDepth int
	// FeatureFrac is the fraction of features each tree may split on
	// (default 0.7, at least 1 feature).
	FeatureFrac float64
	// MeanLeaves replaces the Figure 5 linear-regression leaves
	// (y = a*x + b) with constant-mean leaves — the ablation knob for
	// the paper's leaf-model choice.
	MeanLeaves bool
	// Seed drives bootstrap and feature subsampling.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Trees == 0 {
		c.Trees = 10
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 3
	}
	if c.FeatureFrac <= 0 {
		c.FeatureFrac = 0.7
	}
	return c
}

// node is one tree node: either an internal split or a leaf fit. A
// tree's nodes sit in one slice in preorder, so an internal node's left
// child is the node after it and right indexes its right child.
type node struct {
	// Internal nodes.
	feature   int
	threshold float64
	right     int32
	// Leaves.
	leaf bool
	fit  stats.LinearFit
}

type tree struct {
	nodes    []node // preorder; nodes[0] is the root
	features []int  // the subset this tree may split on
}

// Forest is a trained random decision forest.
type Forest struct {
	trees    []tree
	names    []string
	nFeature int
	// gains accumulates variance-reduction per feature for
	// Importances.
	gains []float64
}

// Train builds a forest from samples. names labels the feature columns
// (used in diagnostics and importances) and must match the feature width.
func Train(samples []Sample, names []string, cfg Config) (*Forest, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("forest: no training samples")
	}
	width := len(samples[0].Features)
	if width == 0 {
		return nil, fmt.Errorf("forest: samples have no features")
	}
	if len(names) != width {
		return nil, fmt.Errorf("forest: %d names for %d features", len(names), width)
	}
	for i, s := range samples {
		if len(s.Features) != width {
			return nil, fmt.Errorf("forest: sample %d has %d features, want %d", i, len(s.Features), width)
		}
		if math.IsNaN(s.X) || math.IsNaN(s.Y) {
			return nil, fmt.Errorf("forest: sample %d has NaN values", i)
		}
	}
	c := cfg.withDefaults()
	f := &Forest{
		trees:    make([]tree, 0, c.Trees),
		names:    append([]string(nil), names...),
		nFeature: width,
		gains:    make([]float64, width),
	}
	rng := dist.NewRNG(c.Seed)
	nSub := int(math.Ceil(c.FeatureFrac * float64(width)))
	if nSub < 1 {
		nSub = 1
	}
	if nSub > width {
		nSub = width
	}
	sc := &scratch{boot: make([]*Sample, len(samples))}
	for ti := 0; ti < c.Trees; ti++ {
		// Bootstrap sample (with replacement).
		boot := sc.boot
		for i := range boot {
			boot[i] = &samples[rng.Intn(len(samples))]
		}
		// Random feature subset.
		perm := rng.Perm(width)
		feats := append([]int(nil), perm[:nSub]...)
		sort.Ints(feats)
		sc.nodes = sc.nodes[:0]
		f.grow(sc, boot, feats, c, 0)
		f.trees = append(f.trees, tree{nodes: append([]node(nil), sc.nodes...), features: feats})
		treesTrained.Inc()
	}
	return f, nil
}

// scratch is the working memory one Train call shares across the growth
// of all its trees: the bootstrap sample, which grow partitions in
// place, and the buffers of one split scan or leaf fit at a time.
type scratch struct {
	boot   []*Sample
	sorted byFeature // bestSplit's sorted copy of a node's samples
	// prefix and prefixSq hold bestSplit's running sums of y and y².
	prefix, prefixSq []float64
	spill            []*Sample // grow's right-hand side while it partitions
	xs, ys           []float64 // makeLeaf's regression inputs
	nodes            []node    // the tree being grown, in preorder
}

// byFeature sorts samples by one feature. sort.Sort runs the same
// pdqsort as sort.Slice, so it orders them identically.
type byFeature struct {
	s  []*Sample
	fi int
}

func (b *byFeature) Len() int           { return len(b.s) }
func (b *byFeature) Less(i, j int) bool { return b.s[i].Features[b.fi] < b.s[j].Features[b.fi] }
func (b *byFeature) Swap(i, j int)      { b.s[i], b.s[j] = b.s[j], b.s[i] }

// resize returns buf with length n, reusing its storage when it can.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// variance returns the population variance of the targets.
func variance(samples []*Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	mean := 0.0
	for _, s := range samples {
		mean += s.Y
	}
	mean /= float64(len(samples))
	v := 0.0
	for _, s := range samples {
		d := s.Y - mean
		v += d * d
	}
	return v / float64(len(samples))
}

// grow recursively builds a (sub)tree, reordering samples in place, and
// appends its nodes to sc.nodes in preorder. Trees are grown deep and
// unpruned; growth stops only when a node is too small, pure,
// un-splittable, or at the configured depth cap.
func (f *Forest) grow(sc *scratch, samples []*Sample, feats []int, c Config, depth int) {
	if len(samples) < 2*c.MinLeaf || variance(samples) < 1e-18 ||
		(c.MaxDepth > 0 && depth >= c.MaxDepth) {
		sc.nodes = append(sc.nodes, f.makeLeaf(sc, samples, c))
		return
	}
	bestGain := 0.0
	bestFeat := -1
	bestThr := 0.0
	parentVar := variance(samples)
	for _, fi := range feats {
		thr, gain := sc.bestSplit(samples, fi, c.MinLeaf, parentVar)
		if gain > bestGain {
			bestGain, bestFeat, bestThr = gain, fi, thr
		}
	}
	if bestFeat < 0 {
		sc.nodes = append(sc.nodes, f.makeLeaf(sc, samples, c))
		return
	}
	f.gains[bestFeat] += bestGain * float64(len(samples))
	// Stable partition: the left side keeps its order at the front, the
	// right side follows in its order.
	nLeft := 0
	right := sc.spill[:0]
	for _, s := range samples {
		if s.Features[bestFeat] <= bestThr {
			samples[nLeft] = s
			nLeft++
		} else {
			right = append(right, s)
		}
	}
	copy(samples[nLeft:], right)
	sc.spill = right
	at := len(sc.nodes)
	sc.nodes = append(sc.nodes, node{feature: bestFeat, threshold: bestThr})
	f.grow(sc, samples[:nLeft], feats, c, depth+1)
	sc.nodes[at].right = int32(len(sc.nodes))
	f.grow(sc, samples[nLeft:], feats, c, depth+1)
}

// bestSplit scans thresholds for one feature and returns the split with
// the largest variance gain (Equation 3's variance-reduction criterion,
// with the child terms weighted by subset size). Candidate thresholds are
// midpoints between consecutive distinct feature values.
func (sc *scratch) bestSplit(samples []*Sample, fi, minLeaf int, parentVar float64) (thr, gain float64) {
	sc.sorted = byFeature{s: append(sc.sorted.s[:0], samples...), fi: fi}
	sort.Sort(&sc.sorted)
	sorted := sc.sorted.s
	n := len(sorted)
	// Prefix sums for O(1) variance of each side.
	prefix := resize(sc.prefix, n+1)
	prefixSq := resize(sc.prefixSq, n+1)
	sc.prefix, sc.prefixSq = prefix, prefixSq
	prefix[0], prefixSq[0] = 0, 0
	for i, s := range sorted {
		prefix[i+1] = prefix[i] + s.Y
		prefixSq[i+1] = prefixSq[i] + s.Y*s.Y
	}
	sideVar := func(lo, hi int) float64 { // variance of sorted[lo:hi]
		if hi == lo {
			return 0
		}
		cnt := float64(hi - lo)
		sum := prefix[hi] - prefix[lo]
		sq := prefixSq[hi] - prefixSq[lo]
		return sq/cnt - (sum/cnt)*(sum/cnt)
	}
	bestGain := 0.0
	bestThr := 0.0
	for i := minLeaf; i <= n-minLeaf; i++ {
		//lint:ignore floateq sorted-neighbour dedup: only bitwise-identical values share a bin, so exact equality is the boundary test
		if sorted[i-1].Features[fi] == sorted[i].Features[fi] {
			continue // not a boundary between distinct values
		}
		wl := float64(i) / float64(n)
		wr := 1 - wl
		g := parentVar - (wl*sideVar(0, i) + wr*sideVar(i, n))
		if g > bestGain {
			bestGain = g
			bestThr = (sorted[i-1].Features[fi] + sorted[i].Features[fi]) / 2
		}
	}
	return bestThr, bestGain
}

// makeLeaf fits the leaf's linear regression of y on x (Figure 5's
// mu_e = a*mu_m + b leaves), or a constant mean under the MeanLeaves
// ablation.
func (f *Forest) makeLeaf(sc *scratch, samples []*Sample, c Config) node {
	if len(samples) == 0 {
		// Can happen only on degenerate splits; predict a neutral fit.
		return node{leaf: true, fit: stats.LinearFit{A: 1, B: 0}}
	}
	xs := resize(sc.xs, len(samples))
	ys := resize(sc.ys, len(samples))
	sc.xs, sc.ys = xs, ys
	for i, s := range samples {
		xs[i] = s.X
		ys[i] = s.Y
	}
	if c.MeanLeaves {
		return node{leaf: true, fit: stats.LinearFit{A: 0, B: stats.Mean(ys), N: len(ys)}}
	}
	return node{leaf: true, fit: stats.FitLinear(xs, ys)}
}

// lookup walks one tree to its leaf fit for the given features.
func (t *tree) lookup(features []float64) stats.LinearFit {
	i := int32(0)
	for !t.nodes[i].leaf {
		if n := &t.nodes[i]; features[n.feature] <= n.threshold {
			i++
		} else {
			i = n.right
		}
	}
	return t.nodes[i].fit
}

// PredictParams returns the ensemble's averaged leaf-regression parameters
// (a, b) for the given features: the "votes" row of Figure 5.
func (f *Forest) PredictParams(features []float64) (a, b float64) {
	if len(features) != f.nFeature {
		panic(fmt.Sprintf("forest: %d features, trained on %d", len(features), f.nFeature))
	}
	for i := range f.trees {
		fit := f.trees[i].lookup(features)
		a += fit.A
		b += fit.B
	}
	n := float64(len(f.trees))
	return a / n, b / n
}

// Predict returns the forest's estimate of y at (features, x):
// mean(a)*x + mean(b).
func (f *Forest) Predict(features []float64, x float64) float64 {
	a, b := f.PredictParams(features)
	return a*x + b
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Importance is one feature's share of total variance reduction.
type Importance struct {
	Name  string
	Share float64
}

// Importances ranks features by their accumulated split gain.
func (f *Forest) Importances() []Importance {
	total := 0.0
	for _, g := range f.gains {
		total += g
	}
	out := make([]Importance, len(f.names))
	for i, name := range f.names {
		share := 0.0
		if total > 0 {
			share = f.gains[i] / total
		}
		out[i] = Importance{Name: name, Share: share}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Share > out[j].Share })
	return out
}
