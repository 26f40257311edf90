package onnx

import (
	"testing"

	"repro/internal/ml"
)

// TestFingerprintTracksInPlaceTransforms: a graph fingerprinted before an
// in-place transform must afterwards report the fingerprint of its new
// content (what a fresh clone computes), never the memoized old value.
func TestFingerprintTracksInPlaceTransforms(t *testing.T) {
	p, _, _ := trainedPipeline(t, &ml.GradientBoosting{NTrees: 20, MaxDepth: 4, Loss: ml.LossLogistic}, 400)
	base, err := Export(p)
	if err != nil {
		t.Fatal(err)
	}
	stats := Stats{
		"age":    {HasRange: true, Min: 30, Max: 40},
		"region": {Categories: map[string]bool{"us": true}},
	}
	transforms := map[string]func(g *Graph) bool{
		"PruneUnusedFeatures": func(g *Graph) bool { PruneUnusedFeatures(g); return true },
		"CompressWithStats": func(g *Graph) bool {
			res := CompressWithStats(g, stats)
			return res.NodesAfter < res.NodesBefore
		},
		"PushUpThreshold": func(g *Graph) bool { _, ok := PushUpThreshold(g, 0.7); return ok },
		"Relayout":        func(g *Graph) bool { g.Relayout(); return false },
	}
	for name, transform := range transforms {
		g := base.Clone()
		before := g.Fingerprint()
		if before != base.Fingerprint() {
			t.Fatalf("%s: clone fingerprint %x differs from original %x", name, before, base.Fingerprint())
		}
		changed := transform(g)
		after := g.Fingerprint()
		if fresh := g.Clone().Fingerprint(); after != fresh {
			t.Errorf("%s: fingerprint %x after the transform, fresh clone says %x", name, after, fresh)
		}
		if changed && after == before {
			t.Errorf("%s changed the graph but the fingerprint stayed %x", name, after)
		}
	}
	if base.Fingerprint() != base.Clone().Fingerprint() {
		t.Error("transforms on clones disturbed the original's fingerprint")
	}
}
