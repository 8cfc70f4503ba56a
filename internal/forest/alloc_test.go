package forest

import "testing"

// countNodes returns the number of nodes in the subtree at n.
func countNodes(n *node) int {
	if n.leaf {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// TestTrainZeroAllocsPerSplit pins Train's working memory: the split
// scans, partitions and leaf fits of one call share one scratch, so
// training allocates the forest's own nodes and trees plus a fixed
// number of buffers, and nothing per split scan.
func TestTrainZeroAllocsPerSplit(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	train := goldenSamples(400, 11)
	cfg := Config{Seed: 5}
	var nodes, trees int
	allocs := testing.AllocsPerRun(5, func() {
		f, err := Train(train, names3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes, trees = 0, len(f.trees)
		for _, tr := range f.trees {
			nodes += countNodes(tr.root)
		}
	})
	// Per tree: its tree, its feature subset and the permutation that
	// drew it. Per call: the forest, its slices, the RNG and the scratch
	// buffers, some grown more than once.
	budget := nodes + 3*trees + 64
	t.Logf("%v allocs for %d trees of %d nodes, budget %d", allocs, trees, nodes, budget)
	if allocs > float64(budget) {
		t.Errorf("Train allocated %v objects, budget %d: something allocates per split scan", allocs, budget)
	}
}
