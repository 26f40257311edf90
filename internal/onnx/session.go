package onnx

import (
	"fmt"
	"sync"

	"repro/internal/ml"
)

// Column is one columnar input to a Session: numeric columns use Nums,
// categorical and text columns use Strs.
type Column struct {
	Nums []float64
	Strs []string
}

// Batch is a columnar slice of rows to score. Cols must align with the
// graph's Inputs declaration.
type Batch struct {
	Cols []Column
	N    int
}

// Session is a planned, reusable executor for one Graph. It precomputes
// per-node dispatch (category indices, offsets) and compiles the tree
// ensemble into a flat branchless kernel, so Run does no per-call planning
// — the "compile into highly optimized code" step. The compiled plan is
// memoized on the graph, so a Session over an already compiled graph costs
// one small allocation. Sessions are safe for concurrent use by multiple
// goroutines.
type Session struct {
	graph *Graph
	plan  *plan
}

// plan is a graph compiled for scoring. It is built once per graph object
// and held in the graph's memo, which Clone does not copy and the in-place
// transforms reset (see Fingerprint for the same rule).
type plan struct {
	width  int
	onehot []map[string]int // per featurizer node; nil for non-onehot
	trees  []kernelTree     // OpTreeEnsemble only
	pool   sync.Pool        // scratch feature buffers
}

// NewSession validates and plans the graph, or reuses the plan memoized on
// it by an earlier call.
func NewSession(g *Graph) (*Session, error) {
	p, err := g.compiled()
	if err != nil {
		return nil, err
	}
	return &Session{graph: g, plan: p}, nil
}

// compiled returns the graph's memoized plan, building it on first use.
func (g *Graph) compiled() (*plan, error) {
	if p := g.memo.plan.Load(); p != nil {
		return p, nil
	}
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	if p := g.memo.plan.Load(); p != nil {
		return p, nil
	}
	depths, err := g.validate()
	if err != nil {
		return nil, err
	}
	p := &plan{width: g.Width(), onehot: make([]map[string]int, len(g.Feats))}
	for i := range g.Feats {
		if g.Feats[i].Op == OpOneHot {
			idx := make(map[string]int, len(g.Feats[i].Categories))
			for slot, c := range g.Feats[i].Categories {
				idx[c] = slot
			}
			p.onehot[i] = idx
		}
	}
	if g.Model.Op == OpTreeEnsemble {
		p.trees = compileTrees(g.Model.Trees, depths)
	}
	p.pool.New = func() any { return &[]float64{} }
	g.memo.plan.Store(p)
	return p, nil
}

// Graph returns the session's (immutable) graph.
func (s *Session) Graph() *Graph { return s.graph }

// Width returns the feature-matrix width.
func (s *Session) Width() int { return s.plan.width }

// Run scores the batch and returns one value per row.
func (s *Session) Run(b *Batch) ([]float64, error) {
	out := make([]float64, b.N)
	if err := s.RunInto(b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunInto scores the batch into a caller-provided slice of length b.N.
func (s *Session) RunInto(b *Batch, out []float64) error {
	if len(b.Cols) != len(s.graph.Inputs) {
		return fmt.Errorf("onnx: batch has %d columns, graph wants %d", len(b.Cols), len(s.graph.Inputs))
	}
	if len(out) != b.N {
		return fmt.Errorf("onnx: output slice has %d slots for %d rows", len(out), b.N)
	}
	bufp := s.plan.pool.Get().(*[]float64)
	need := b.N * s.plan.width
	if cap(*bufp) < need {
		*bufp = make([]float64, need)
	}
	feats := (*bufp)[:need]
	for i := range feats {
		feats[i] = 0
	}
	defer s.plan.pool.Put(bufp)

	if err := s.featurize(b, feats); err != nil {
		return err
	}
	s.score(feats, b.N, out)
	return nil
}

// colFor maps the featurizer node's input name to its batch column.
func (s *Session) colFor(b *Batch, name string) (*Column, error) {
	for i := range s.graph.Inputs {
		if s.graph.Inputs[i].Name == name {
			return &b.Cols[i], nil
		}
	}
	return nil, fmt.Errorf("onnx: input column %q missing from batch", name)
}

func (s *Session) featurize(b *Batch, feats []float64) error {
	w := s.plan.width
	for ni := range s.graph.Feats {
		node := &s.graph.Feats[ni]
		col, err := s.colFor(b, node.Input)
		if err != nil {
			return err
		}
		off := node.Offset
		switch node.Op {
		case OpScaler:
			if len(col.Nums) < b.N {
				return fmt.Errorf("onnx: numeric column %q has %d values for %d rows", node.Input, len(col.Nums), b.N)
			}
			mean, scale := node.Mean, node.Scale
			for r := 0; r < b.N; r++ {
				feats[r*w+off] = (col.Nums[r] - mean) / scale
			}
		case OpOneHot:
			if len(col.Strs) < b.N {
				return fmt.Errorf("onnx: categorical column %q has %d values for %d rows", node.Input, len(col.Strs), b.N)
			}
			idx := s.plan.onehot[ni]
			for r := 0; r < b.N; r++ {
				if slot, ok := idx[col.Strs[r]]; ok {
					feats[r*w+off+slot] = 1
				}
			}
		case OpHashText:
			if len(col.Strs) < b.N {
				return fmt.Errorf("onnx: text column %q has %d values for %d rows", node.Input, len(col.Strs), b.N)
			}
			buckets := node.Buckets
			for r := 0; r < b.N; r++ {
				for _, tok := range ml.Tokenize(col.Strs[r]) {
					feats[r*w+off+ml.HashToken(tok, buckets)]++
				}
			}
		}
	}
	return nil
}

func (s *Session) score(feats []float64, n int, out []float64) {
	w := s.plan.width
	m := &s.graph.Model
	switch m.Op {
	case OpLinear:
		coeff := m.Coeff
		for r := 0; r < n; r++ {
			row := feats[r*w : r*w+w]
			// Accumulate products first, then the intercept, matching the
			// float ordering of ml's Dot(w, x) + b exactly.
			var acc float64
			for j, c := range coeff {
				acc += c * row[j]
			}
			out[r] = acc + m.Intercept
		}
	case OpTreeEnsemble:
		for r := 0; r < n; r++ {
			out[r] = m.Base
		}
		scoreTrees(s.plan.trees, m.Rate, feats, w, n, out)
	}
	if m.PostSigmoid {
		for r := 0; r < n; r++ {
			out[r] = ml.Sigmoid(out[r])
		}
	}
}

// kernelTree is one decision tree compiled for branchless descent. Node p
// tests x[node.feat] < node.thresh and steps to node.kid[1] when that
// holds, node.kid[0] otherwise, so NaN goes right as in the tree walk.
// A leaf keeps both kids pointing at itself and tests feature 0, so a
// descent of exactly depth steps ends on the right leaf from any root-to-
// leaf path length; a graph whose width is 0 has only single-leaf trees
// (depth 0), so feature 0 is only read when it exists.
type kernelTree struct {
	nodes []kernelNode
	value []float64 // leaf values by node index
	depth int       // splits on the longest root-to-leaf path
}

type kernelNode struct {
	thresh float64
	feat   int32
	kid    [2]int32 // [x >= thresh or NaN, x < thresh]
}

// compileTrees flattens validated trees (depths from validate) into the
// kernel layout, with every tree's nodes in one backing array.
func compileTrees(trees []Tree, depths []int) []kernelTree {
	total := 0
	for i := range trees {
		total += len(trees[i].Feature)
	}
	nodes := make([]kernelNode, total)
	values := make([]float64, total)
	out := make([]kernelTree, len(trees))
	for i := range trees {
		tr := &trees[i]
		n := len(tr.Feature)
		kt := kernelTree{nodes: nodes[:n:n], value: values[:n:n], depth: depths[i]}
		nodes, values = nodes[n:], values[n:]
		copy(kt.value, tr.Value)
		for j := 0; j < n; j++ {
			if tr.Left[j] >= 0 {
				kt.nodes[j] = kernelNode{thresh: tr.Threshold[j], feat: tr.Feature[j], kid: [2]int32{tr.Right[j], tr.Left[j]}}
			} else {
				kt.nodes[j] = kernelNode{kid: [2]int32{int32(j), int32(j)}}
			}
		}
		out[i] = kt
	}
	return out
}

// kernelBlock is the row block the kernel sweeps every tree over: its
// feature rows stay in cache while the trees stream past them.
const kernelBlock = 64

// scoreTrees adds rate*leaf of every tree, in tree order, to out[r] for
// each of the n feature rows of width w. Four independent descents run
// interleaved so their loads overlap: four rows per tree within a block,
// and four trees per row for the (fewer than four) rows left over. Each
// row's sum is formed in the same order as a plain tree-by-tree walk, so
// scores are bit-identical to it.
func scoreTrees(trees []kernelTree, rate float64, feats []float64, w, n int, out []float64) {
	quads := n &^ 3
	for lo := 0; lo < quads; lo += kernelBlock {
		hi := min(lo+kernelBlock, quads)
		for ti := range trees {
			tr := &trees[ti]
			nodes := tr.nodes
			for r := lo; r < hi; r += 4 {
				o0 := r * w
				var p0, p1, p2, p3 int32
				for d := 0; d < tr.depth; d++ {
					p0 = step(nodes, feats, o0, p0)
					p1 = step(nodes, feats, o0+w, p1)
					p2 = step(nodes, feats, o0+2*w, p2)
					p3 = step(nodes, feats, o0+3*w, p3)
				}
				out[r] += rate * tr.value[p0]
				out[r+1] += rate * tr.value[p1]
				out[r+2] += rate * tr.value[p2]
				out[r+3] += rate * tr.value[p3]
			}
		}
	}
	for r := quads; r < n; r++ {
		scoreRow(trees, rate, feats[r*w:r*w+w], &out[r])
	}
}

// scoreRow adds every tree's contribution for one row, four trees at a
// time.
func scoreRow(trees []kernelTree, rate float64, x []float64, acc *float64) {
	sum := *acc
	t := 0
	for ; t+4 <= len(trees); t += 4 {
		t0, t1, t2, t3 := &trees[t], &trees[t+1], &trees[t+2], &trees[t+3]
		depth := max(t0.depth, t1.depth, t2.depth, t3.depth)
		var p0, p1, p2, p3 int32
		for d := 0; d < depth; d++ {
			p0 = step(t0.nodes, x, 0, p0)
			p1 = step(t1.nodes, x, 0, p1)
			p2 = step(t2.nodes, x, 0, p2)
			p3 = step(t3.nodes, x, 0, p3)
		}
		sum += rate * t0.value[p0]
		sum += rate * t1.value[p1]
		sum += rate * t2.value[p2]
		sum += rate * t3.value[p3]
	}
	for ; t < len(trees); t++ {
		tr := &trees[t]
		var p int32
		for d := 0; d < tr.depth; d++ {
			p = step(tr.nodes, x, 0, p)
		}
		sum += rate * tr.value[p]
	}
	*acc = sum
}

// step is one branchless descent over the feature row starting at
// feats[row]: the comparison indexes the child table instead of choosing a
// jump (the &1 lets the compiler drop that index's bounds check).
func step(nodes []kernelNode, feats []float64, row int, p int32) int32 {
	nd := &nodes[p]
	return nd.kid[b2i(feats[row+int(nd.feat)] < nd.thresh)&1]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// BatchFromFrame adapts an ml.Frame into a Batch ordered by the graph's
// inputs; a convenience for tests and the standalone scoring path.
func BatchFromFrame(g *Graph, f *ml.Frame) (*Batch, error) {
	b := &Batch{N: f.NumRows()}
	for _, in := range g.Inputs {
		col := f.Col(in.Name)
		if col == nil {
			return nil, fmt.Errorf("onnx: frame is missing column %q", in.Name)
		}
		if col.Kind != in.Kind {
			return nil, fmt.Errorf("onnx: column %q is %v, graph wants %v", in.Name, col.Kind, in.Kind)
		}
		b.Cols = append(b.Cols, Column{Nums: col.Nums, Strs: col.Strs})
	}
	return b, nil
}
