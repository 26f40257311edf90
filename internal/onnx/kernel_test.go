package onnx

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/ml"
)

// refScore is the reference the compiled kernel is held to: a plain
// pointer-chasing walk of each tree, per row, summed base first and then
// tree by tree, then the sigmoid. It reads only the graph's exported
// fields, and takes feature rows directly.
func refScore(g *Graph, rows [][]float64) []float64 {
	m := &g.Model
	out := make([]float64, len(rows))
	for r, x := range rows {
		acc := m.Base
		for ti := range m.Trees {
			tr := &m.Trees[ti]
			node := int32(0)
			for tr.Left[node] >= 0 {
				if x[tr.Feature[node]] < tr.Threshold[node] {
					node = tr.Left[node]
				} else {
					node = tr.Right[node]
				}
			}
			acc += m.Rate * tr.Value[node]
		}
		if m.PostSigmoid {
			acc = ml.Sigmoid(acc)
		}
		out[r] = acc
	}
	return out
}

// kernelGrid holds the values thresholds are drawn from; features are
// drawn from it too, plus NaN and ±Inf, so x == threshold ties are common.
var kernelGrid = []float64{-2, -1, -0.5, 0, 0.5, 1, 2}

// randomTree grows a tree over width features. Leaf probability rises
// with depth; chain makes one child of every split a leaf, giving a
// maximally unbalanced tree. Node indices are shuffled (root kept at 0),
// so the kernel cannot rely on pre-order layout.
func randomTree(rng *ml.Rand, width, maxDepth int, chain bool) Tree {
	var tr Tree
	var grow func(depth int) int32
	grow = func(depth int) int32 {
		idx := int32(len(tr.Feature))
		tr.Feature = append(tr.Feature, 0)
		tr.Threshold = append(tr.Threshold, 0)
		tr.Left = append(tr.Left, -1)
		tr.Right = append(tr.Right, -1)
		tr.Value = append(tr.Value, rng.Float64()*2-1)
		if depth == maxDepth || (depth > 0 && rng.Intn(maxDepth+1) < depth/2) {
			return idx
		}
		tr.Feature[idx] = int32(rng.Intn(width))
		tr.Threshold[idx] = kernelGrid[rng.Intn(len(kernelGrid))]
		var l, r int32
		if chain && rng.Intn(2) == 0 {
			l, r = grow(maxDepth), grow(depth+1)
		} else if chain {
			l, r = grow(depth+1), grow(maxDepth)
		} else {
			l, r = grow(depth+1), grow(depth+1)
		}
		tr.Left[idx], tr.Right[idx] = l, r
		return idx
	}
	grow(0)

	n := len(tr.Feature)
	perm := make([]int32, n) // old index -> new index; root stays 0
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 1; i-- {
		j := 1 + rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := Tree{
		Feature: make([]int32, n), Threshold: make([]float64, n),
		Left: make([]int32, n), Right: make([]int32, n), Value: make([]float64, n),
	}
	for old := 0; old < n; old++ {
		p := perm[old]
		out.Feature[p], out.Threshold[p], out.Value[p] = tr.Feature[old], tr.Threshold[old], tr.Value[old]
		out.Left[p], out.Right[p] = -1, -1
		if tr.Left[old] >= 0 {
			out.Left[p], out.Right[p] = perm[tr.Left[old]], perm[tr.Right[old]]
		}
	}
	return out
}

// kernelGraph builds a tree ensemble over four identity-scaled numeric
// inputs, so the session's feature row equals its input row bit for bit.
func kernelGraph(trees []Tree, sigmoid bool) *Graph {
	width := 4
	g := &Graph{Name: "k", Output: "score"}
	for i := 0; i < width; i++ {
		name := string(rune('a' + i))
		g.Inputs = append(g.Inputs, InputSpec{Name: name, Kind: ml.KindNumeric})
		g.Feats = append(g.Feats, FeatNode{Op: OpScaler, Input: name, Mean: 0, Scale: 1})
	}
	g.Model = ModelNode{Op: OpTreeEnsemble, Trees: trees, Base: 0.125, Rate: 0.3, PostSigmoid: sigmoid}
	g.Relayout()
	return g
}

// kernelRows draws n feature rows mixing grid values, NaN and ±Inf.
func kernelRows(rng *ml.Rand, n, width int) ([][]float64, *Batch) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	rows := make([][]float64, n)
	b := &Batch{N: n, Cols: make([]Column, width)}
	for c := range b.Cols {
		b.Cols[c].Nums = make([]float64, n)
	}
	for r := range rows {
		rows[r] = make([]float64, width)
		for c := 0; c < width; c++ {
			var v float64
			switch k := rng.Intn(10); {
			case k == 0:
				v = special[rng.Intn(len(special))]
			case k < 6:
				v = kernelGrid[rng.Intn(len(kernelGrid))]
			default:
				v = rng.Float64()*6 - 3
			}
			rows[r][c] = v
			b.Cols[c].Nums[r] = v
		}
	}
	return rows, b
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d scored %v (%#x), reference %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestTreeKernelMatchesReferenceWalk holds the compiled kernel to the
// reference walk bit for bit, over ensembles of single-leaf, balanced and
// chain-shaped trees in shuffled layouts, features hitting NaN, ±Inf and
// exact threshold ties, with and without the sigmoid, at row counts on
// both sides of the kernel's 4-row and 64-row groupings.
func TestTreeKernelMatchesReferenceWalk(t *testing.T) {
	rng := ml.NewRand(13)
	ensembles := map[string][]Tree{"empty": nil}
	for _, nTrees := range []int{1, 3, 4, 5, 9, 50} {
		var trees []Tree
		for i := 0; i < nTrees; i++ {
			switch i % 3 {
			case 0:
				trees = append(trees, randomTree(rng, 4, 4, false))
			case 1:
				trees = append(trees, randomTree(rng, 4, 1+rng.Intn(12), true))
			default:
				trees = append(trees, randomTree(rng, 4, rng.Intn(3), false))
			}
		}
		ensembles[strings.Repeat("t", nTrees)] = trees
	}
	leaf := Tree{Feature: []int32{0}, Threshold: []float64{0}, Left: []int32{-1}, Right: []int32{-1}, Value: []float64{0.75}}
	ensembles["leaves"] = []Tree{leaf, leaf, leaf, leaf, leaf}

	for name, trees := range ensembles {
		for _, sigmoid := range []bool{false, true} {
			g := kernelGraph(trees, sigmoid)
			sess, err := NewSession(g)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, n := range []int{0, 1, 3, 4, 5, 63, 64, 65, 4096} {
				rows, b := kernelRows(rng, n, 4)
				got, err := sess.Run(b)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("%s/sigmoid=%v/n=%d", name, sigmoid, n), got, refScore(g, rows))
			}
		}
	}
}

// TestCompiledPlanTracksInPlaceTransforms: the compiled plan is memoized on
// the graph, so a second NewSession reuses it, a Clone starts without it,
// and an in-place transform drops it, so the next NewSession scores the
// graph's new content.
func TestCompiledPlanTracksInPlaceTransforms(t *testing.T) {
	rng := ml.NewRand(5)
	var trees []Tree
	for i := 0; i < 8; i++ {
		trees = append(trees, randomTree(rng, 4, 4, false))
	}
	g := kernelGraph(trees, true)
	rows, b := kernelRows(rng, 67, 4)

	s1, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewSession(g)
	if s1.plan != s2.plan {
		t.Fatal("a second NewSession recompiled an already compiled graph")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = NewSession(g) }); allocs > 1 {
		t.Errorf("NewSession on a compiled graph allocates %v times, want at most 1", allocs)
	}
	fresh := g.Clone()
	if fresh.memo.plan.Load() != nil {
		t.Fatal("Clone carried the compiled plan")
	}
	// Concurrent first use compiles once: every session shares one plan.
	plans := make([]*plan, 8)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if s, err := NewSession(fresh); err == nil {
				plans[i] = s.plan
			}
		}(i)
	}
	wg.Wait()
	for i := range plans {
		if plans[i] == nil || plans[i] != plans[0] {
			t.Fatalf("concurrent NewSession calls got plans %v, want one shared plan", plans)
		}
	}

	prev, _ := s1.Run(b)
	changed := func(label string, got []float64) {
		t.Helper()
		sameBits(t, label, got, refScore(g, rows))
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(prev[i]) {
				prev = got
				return
			}
		}
		t.Fatalf("%s: scores unchanged, so the test no longer exercises the reset", label)
	}

	if _, ok := PushUpThreshold(g, 0.7); !ok {
		t.Fatal("push-up should apply")
	}
	s3, _ := NewSession(g)
	got, _ := s3.Run(b)
	changed("after PushUpThreshold", got)

	g.Model.Trees[0] = randomTree(rng, 4, 6, true)
	g.Relayout()
	s4, _ := NewSession(g)
	got, _ = s4.Run(b)
	changed("after Relayout", got)
}

// TestValidateRejectsMalformedTrees: a tree that is not a proper binary
// tree rooted at node 0 must fail Unmarshal (the path models arrive by)
// and NewSession, not loop forever or misscore when run.
func TestValidateRejectsMalformedTrees(t *testing.T) {
	leaf := func(n int) Tree {
		tr := Tree{Feature: make([]int32, n), Threshold: make([]float64, n), Left: make([]int32, n), Right: make([]int32, n), Value: make([]float64, n)}
		for i := range tr.Left {
			tr.Left[i], tr.Right[i] = -1, -1
		}
		return tr
	}
	cases := map[string]func() Tree{
		"self cycle": func() Tree { tr := leaf(2); tr.Left[0], tr.Right[0] = 0, 1; return tr },
		"back edge": func() Tree {
			tr := leaf(3)
			tr.Left[0], tr.Right[0] = 1, 2
			tr.Left[1], tr.Right[1] = 0, 2
			return tr
		},
		"shared child": func() Tree { tr := leaf(2); tr.Left[0], tr.Right[0] = 1, 1; return tr },
		"unreachable":  func() Tree { return leaf(3) },
		"empty":        func() Tree { return Tree{} },
		"missing right": func() Tree {
			tr := leaf(2)
			tr.Left[0], tr.Right[0] = 1, -1
			return tr
		},
	}
	for name, mk := range cases {
		good := leaf(1)
		g := kernelGraph([]Tree{good, mk()}, false)
		blob, err := Marshal(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Unmarshal(blob); err == nil {
			t.Errorf("%s: Unmarshal accepted the tree", name)
		} else if !strings.Contains(err.Error(), "tree 1") {
			t.Errorf("%s: error %q does not name the tree", name, err)
		}
		if _, err := NewSession(g); err == nil {
			t.Errorf("%s: NewSession accepted the tree", name)
		}
	}

	// A 3000-split chain: validation walks it without recursion.
	const chain = 3000
	deep := leaf(2*chain + 1)
	for i := 0; i < chain; i++ {
		deep.Left[2*i], deep.Right[2*i] = int32(2*i+1), int32(2*i+2)
	}
	g := kernelGraph([]Tree{deep}, false)
	depths, err := g.validate()
	if err != nil {
		t.Fatal(err)
	}
	if depths[0] != chain {
		t.Fatalf("chain depth %d, want %d", depths[0], chain)
	}
}
