package main

import (
	"sort"
	"strings"

	"mdsprint/internal/obs"
)

// The benchmark's spans are named <layer>.<what>: the layer is the
// package whose public function the span wraps, and "bench" is the
// benchmark's own code between those calls.

// layerOf returns the layer a span belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfByLayer sums the self time of every span by layer, in seconds. A
// span's self time is its duration minus the part of it that its child
// spans cover.
func selfByLayer(spans []obs.SpanData) map[string]float64 {
	kids := map[uint64][]obs.SpanData{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		self := s.EndNS - s.StartNS - covered(s, kids[s.ID])
		out[layerOf(s.Name)] += float64(self) / 1e9
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// kids' intervals covers.
func covered(parent obs.SpanData, kids []obs.SpanData) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	end := parent.StartNS // everything before end is already counted
	for _, k := range kids {
		lo, hi := max(k.StartNS, end), min(k.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}
