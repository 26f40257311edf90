package onnx

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// graphMemo holds what is derived once per graph object: the content
// fingerprint and the compiled scoring plan. Its zero value means "nothing
// computed", so a fresh Graph (a literal, a Clone, a decoded blob) starts
// empty; in-place transforms call reset, which drops both.
type graphMemo struct {
	mu   sync.Mutex
	fp   atomic.Uint64 // 0 = not computed yet
	plan atomic.Pointer[plan]
}

func (m *graphMemo) reset() {
	m.fp.Store(0)
	m.plan.Store(nil)
}

// Fingerprint hashes the graph's full content: inputs, featurizer
// parameters, model weights, output name. Two content-identical graphs
// score identically, so the inference plane keys cache entries, backends
// and micro-batchers by it, and a redeployed model (new content) can never
// be mistaken for the old one even when a plan holds a private copy.
//
// It is computed at most once per graph object and memoized. Clone does
// not carry the memo, and the in-place transforms in this package reset
// it (Relayout, which PruneUnusedFeatures and CompressWithStats end with,
// and PushUpThreshold), which also drops the compiled plan NewSession
// memoizes beside it. Code that edits a graph's exported fields directly
// after fingerprinting or compiling it must call Relayout before scoring
// or sharing that graph.
func (g *Graph) Fingerprint() uint64 {
	if v := g.memo.fp.Load(); v != 0 {
		return v
	}
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	if v := g.memo.fp.Load(); v != 0 {
		return v
	}
	v := g.contentHash()
	if v == 0 {
		v = 1 // 0 marks "not computed"
	}
	g.memo.fp.Store(v)
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

// RowKey is a 128-bit hash of one batch row with a model name folded in:
// the inference plane's score-cache key. Its two 64-bit lanes are
// independent hashes of the same injective word encoding of (model, row),
// and the cache compares both, so serving another row's score takes a
// collision in both lanes at once.
type RowKey struct{ Hi, Lo uint64 }

// KeySeed folds a model name into the starting state of RowKey, once per
// scored batch.
func KeySeed(model string) RowKey {
	h := RowKey{Hi: keySeedHi, Lo: keySeedLo}
	h.str(model)
	return h
}

// RowKey hashes row of the batch on top of seed, a word at a time in one
// pass. Column index, kind and value all feed the hash, so distinct input
// layouts (e.g. a sparsity-pruned plan graph vs the full registry graph)
// cannot collide.
func (b *Batch) RowKey(seed RowKey, row int) RowKey {
	h := seed
	for i := range b.Cols {
		col := &b.Cols[i]
		if col.Nums != nil {
			h.word(uint64(2*i + 1))
			h.word(math.Float64bits(col.Nums[row]))
			continue
		}
		h.word(uint64(2*i + 2))
		h.str(col.Strs[row])
	}
	return h
}

// Starting states (hex digits of pi) and odd multipliers (the wyhash prime
// and the 64-bit golden ratio) of the two RowKey lanes.
const (
	keySeedHi = 0x243f6a8885a308d3
	keySeedLo = 0x13198a2e03707344
	keyMulHi  = 0xa0761d6478bd642f
	keyMulLo  = 0x9e3779b97f4a7c15
)

// word mixes one 64-bit word into both lanes: each lane multiplies its
// state xor the word by its own constant into 128 bits and folds the
// halves.
func (h *RowKey) word(v uint64) {
	hi1, lo1 := bits.Mul64(h.Hi^v, keyMulHi)
	hi2, lo2 := bits.Mul64(h.Lo^v, keyMulLo)
	h.Hi, h.Lo = hi1^lo1, hi2^lo2
}

// str mixes the string's length and then its bytes, eight at a time
// (little-endian, the last word zero-padded; the length keeps that
// unambiguous).
func (h *RowKey) str(s string) {
	h.word(uint64(len(s)))
	for len(s) >= 8 {
		h.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var v uint64
		for i := len(s) - 1; i >= 0; i-- {
			v = v<<8 | uint64(s[i])
		}
		h.word(v)
	}
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
