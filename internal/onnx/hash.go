package onnx

import (
	"math"
	"sync"
	"sync/atomic"
)

// graphFP memoizes a graph's content fingerprint. Its zero value means
// "not computed", so a fresh Graph (a literal, a Clone, a decoded blob)
// starts unfingerprinted; in-place transforms call reset.
type graphFP struct {
	mu  sync.Mutex
	val atomic.Uint64 // 0 = not computed yet
}

func (f *graphFP) reset() { f.val.Store(0) }

// Fingerprint hashes the graph's full content: inputs, featurizer
// parameters, model weights, output name. Two content-identical graphs
// score identically, so the inference plane keys cache entries, backends
// and micro-batchers by it, and a redeployed model (new content) can never
// be mistaken for the old one even when a plan holds a private copy.
//
// It is computed at most once per graph object and memoized. Clone does
// not carry the memo, and the in-place transforms in this package reset
// it (Relayout, which PruneUnusedFeatures and CompressWithStats end with,
// and PushUpThreshold). Code that edits a graph's exported fields directly after
// fingerprinting it must not share that graph.
func (g *Graph) Fingerprint() uint64 {
	if v := g.fp.val.Load(); v != 0 {
		return v
	}
	g.fp.mu.Lock()
	defer g.fp.mu.Unlock()
	if v := g.fp.val.Load(); v != 0 {
		return v
	}
	v := g.contentHash()
	if v == 0 {
		v = 1 // 0 marks "not computed"
	}
	g.fp.val.Store(v)
	return v
}

func (g *Graph) contentHash() uint64 {
	h := fnv(fnvOffset64)
	h.str(g.Name)
	h.str(g.Output)
	h.word(uint64(len(g.Inputs)))
	for _, in := range g.Inputs {
		h.str(in.Name)
		h.word(uint64(in.Kind))
	}
	h.word(uint64(len(g.Feats)))
	for i := range g.Feats {
		f := &g.Feats[i]
		h.word(uint64(f.Op))
		h.str(f.Input)
		h.word(uint64(f.Offset))
		h.float(f.Mean)
		h.float(f.Scale)
		h.word(uint64(len(f.Categories)))
		for _, c := range f.Categories {
			h.str(c)
		}
		h.word(uint64(f.Buckets))
	}
	m := &g.Model
	h.word(uint64(m.Op))
	h.word(uint64(len(m.Coeff)))
	for _, c := range m.Coeff {
		h.float(c)
	}
	h.float(m.Intercept)
	h.float(m.Base)
	h.float(m.Rate)
	if m.PostSigmoid {
		h.word(1)
	}
	h.word(uint64(len(m.Trees)))
	for t := range m.Trees {
		tr := &m.Trees[t]
		h.word(uint64(len(tr.Feature)))
		for i := range tr.Feature {
			h.word(uint64(tr.Feature[i]))
			h.float(tr.Threshold[i])
			h.word(uint64(uint32(tr.Left[i])))
			h.word(uint64(uint32(tr.Right[i])))
			h.float(tr.Value[i])
		}
	}
	return uint64(h)
}

// RowHash is an FNV-1a hash of one row of the batch — the feature-vector
// half of the inference plane's score-cache key. Column index, kind, and
// value all feed the hash so distinct input layouts (e.g. a
// sparsity-pruned plan graph vs the full registry graph) cannot collide.
func (b *Batch) RowHash(row int) uint64 {
	h := fnv(fnvOffset64)
	for i := range b.Cols {
		col := &b.Cols[i]
		if col.Nums != nil {
			h.word(uint64(2*i + 1))
			h.float(col.Nums[row])
			continue
		}
		h.word(uint64(2*i + 2))
		h.str(col.Strs[row])
	}
	return uint64(h)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv is an inlined FNV-1a accumulator.
type fnv uint64

func (h *fnv) word(v uint64) {
	x := uint64(*h)
	for s := 0; s < 64; s += 8 {
		x ^= (v >> s) & 0xff
		x *= fnvPrime64
	}
	*h = fnv(x)
}

func (h *fnv) float(f float64) { h.word(math.Float64bits(f)) }

func (h *fnv) str(s string) {
	h.word(uint64(len(s)))
	x := uint64(*h)
	for j := 0; j < len(s); j++ {
		x ^= uint64(s[j])
		x *= fnvPrime64
	}
	*h = fnv(x)
}
