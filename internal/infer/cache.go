package infer

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/onnx"
)

// scoreCache memoizes model scores keyed on a 128-bit hash of (model,
// feature row), with each entry stamped by the registry generation and the
// graph fingerprint it was computed under. Like the plan cache, the cache
// only ever amortizes: correctness comes from the generation guard on
// every read, not from eager invalidation — a retrain or redeploy bumps the
// registry generation, and the first lookup that observes the mismatch
// evicts the entry instead of serving it (counted in stale). The cachegen
// flock-vet analyzer enforces that guard.
//
// The table is fixed at construction and holds no pointers: 8-way buckets
// chosen by the key's low lane, each bucket guarded by one of a constant
// set of striped locks and evicting by CLOCK (a per-slot reference bit set
// on every hit, cleared as the bucket's hand sweeps past) rather than by
// exact recency. A lookup compares the full 128-bit key, so a collision in
// one 64-bit lane can never serve another row's score.
type scoreCache struct {
	buckets []cacheBucket
	stripes [cacheStripes]cacheStripe
}

const (
	cacheWays    = 8
	cacheStripes = 64
)

// cacheStripe is one lock and the hit/miss/stale counters of the lookups
// it guards, padded to a cache line of its own: a lookup touches only its
// stripe's line, so lookups on different stripes never contend, and the
// counters are atomic so stats can sum them without taking the locks.
type cacheStripe struct {
	mu                  sync.Mutex
	hits, misses, stale atomic.Int64
	_                   [32]byte
}

type cacheBucket struct {
	slots [cacheWays]cacheSlot
	used  uint8 // bit i set: slots[i] holds an entry
	ref   uint8 // bit i set: slots[i] was hit since the hand last passed it
	hand  uint8 // next slot CLOCK considers for eviction
}

type cacheSlot struct {
	key   onnx.RowKey
	gen   int64
	fp    uint64 // fingerprint of the graph that produced the score
	score float64
}

// newScoreCache sizes the table to hold capacity entries (rounded up to a
// whole bucket).
func newScoreCache(capacity int) *scoreCache {
	return &scoreCache{buckets: make([]cacheBucket, (capacity+cacheWays-1)/cacheWays)}
}

// bucket returns the key's bucket and the stripe guarding it. The bucket
// index is the high word of lo*len(buckets), which spreads lo uniformly
// over any table size without a power-of-two rounding.
func (c *scoreCache) bucket(key onnx.RowKey) (*cacheBucket, *cacheStripe) {
	i, _ := bits.Mul64(key.Lo, uint64(len(c.buckets)))
	return &c.buckets[i], &c.stripes[i%cacheStripes]
}

// find returns the slot holding key, or -1.
func (b *cacheBucket) find(key onnx.RowKey) int {
	for i := range b.slots {
		if b.used&(1<<i) != 0 && b.slots[i].key == key {
			return i
		}
	}
	return -1
}

// lookup returns the cached score for key if and only if it was computed
// under the given registry generation for the given graph content. The
// generation comparison evicts entries orphaned by a retrain or redeploy;
// the fingerprint comparison closes the race where a redeploy lands
// between a caller resolving its graph and the plane stamping the entry —
// a score is only ever served against graph content identical to what
// produced it. (Fingerprints rather than pointer identity, because a plan
// may hold a private clone of the deployed graph.)
func (c *scoreCache) lookup(key onnx.RowKey, gen int64, fp uint64) (float64, bool) {
	b, st := c.bucket(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	i := b.find(key)
	if i < 0 {
		st.misses.Add(1)
		return 0, false
	}
	e := &b.slots[i]
	if e.gen != gen || e.fp != fp {
		// Stale generation (or a graph from the losing side of a redeploy
		// race): the model changed after this score was computed. Never
		// serve it.
		b.used &^= 1 << i
		b.ref &^= 1 << i
		st.stale.Add(1)
		st.misses.Add(1)
		return 0, false
	}
	b.ref |= 1 << i
	st.hits.Add(1)
	return e.score, true
}

// store records a score computed under gen for graph fingerprint fp. A new
// key takes a free slot of its bucket, or else the first slot the CLOCK
// hand finds unreferenced. It enters unreferenced, so a scan of rows that
// are never reused evicts its own entries before the ones that were hit.
func (c *scoreCache) store(key onnx.RowKey, gen int64, fp uint64, score float64) {
	b, st := c.bucket(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	i := b.find(key)
	if i < 0 {
		i = b.victim()
		b.ref &^= 1 << i
	}
	b.slots[i] = cacheSlot{key: key, gen: gen, fp: fp, score: score}
	b.used |= 1 << i
}

// victim picks the slot a new entry takes: a free one, or else the first
// slot at or after the hand whose reference bit is clear, clearing the
// bits it passes (at most one full sweep).
func (b *cacheBucket) victim() int {
	if b.used != 1<<cacheWays-1 {
		return bits.TrailingZeros8(^b.used)
	}
	for b.ref&(1<<b.hand) != 0 {
		b.ref &^= 1 << b.hand
		b.hand = (b.hand + 1) % cacheWays
	}
	i := int(b.hand)
	b.hand = (b.hand + 1) % cacheWays
	return i
}

// stats returns (hits, misses, stale evictions) so far.
func (c *scoreCache) stats() (hits, misses, stale int64) {
	for s := range c.stripes {
		st := &c.stripes[s]
		hits += st.hits.Load()
		misses += st.misses.Load()
		stale += st.stale.Load()
	}
	return hits, misses, stale
}

// len reports current occupancy. It takes every stripe in turn, so it is
// for gauges, not hot paths.
func (c *scoreCache) len() int {
	n := 0
	for s := range c.stripes {
		mu := &c.stripes[s].mu
		mu.Lock()
		for i := s; i < len(c.buckets); i += cacheStripes {
			n += bits.OnesCount8(c.buckets[i].used)
		}
		mu.Unlock()
	}
	return n
}
