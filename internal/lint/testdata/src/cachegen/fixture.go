// Fixture for the cachegen analyzer: score-cache reads must be guarded by
// a model-generation comparison, and every cache lookup/store must thread
// the current registry generation through.
package cachegen_fixture

import "sync/atomic"

type entry struct {
	gen   int64
	score float64
}

type cache struct {
	entries map[uint64]*entry
	hits    int64
	misses  int64
}

func (c *cache) lookup(hash uint64, gen int64) (float64, bool) {
	e, ok := c.entries[hash]
	if !ok {
		c.misses++
		return 0, false
	}
	if e.gen != gen {
		c.misses++
		return 0, false
	}
	c.hits++
	return e.score, true
}

func (c *cache) store(hash uint64, gen int64, score float64) {
	c.entries[hash] = &entry{gen: gen, score: score}
}

type registry struct{ gen int64 }

func (r *registry) Generation() int64 { return r.gen }

// Serving a hit with no generation comparison anywhere: a redeploy bumps
// the registry and this keeps answering with the displaced model.
func (c *cache) badHitNoGate(hash uint64) (float64, bool) {
	e, ok := c.entries[hash]
	if !ok {
		return 0, false
	}
	c.hits++ // want `cache hit served without a preceding model-generation comparison`
	return e.score, true
}

// The comparison exists but runs after the hit was already served.
func (c *cache) badGateTooLate(hash uint64, gen int64) (float64, bool) {
	e, ok := c.entries[hash]
	if !ok {
		return 0, false
	}
	c.hits++ // want `cache hit served without a preceding model-generation comparison`
	if e.gen != gen {
		return 0, false
	}
	return e.score, true
}

// Reading the cache without threading the generation in: the provider's
// guard has nothing current to compare against.
func badLookupNoGen(c *cache, hash uint64) float64 {
	if s, ok := c.lookupUnguarded(hash); ok { // a sibling that takes no gen
		return s
	}
	return 0
}

func (c *cache) lookupUnguarded(hash uint64) (float64, bool) {
	e, ok := c.entries[hash]
	if !ok {
		return 0, false
	}
	c.hits++ // want `cache hit served without a preceding model-generation comparison`
	return e.score, true
}

// Stamping an entry with a constant instead of the registry generation:
// the entry can never be revalidated.
func badStoreConstant(scoreCache *cache, hash uint64, score float64) {
	scoreCache.store(hash, 0, score) // want `store on a score cache without a generation argument`
}

// The required shape: capture the generation once, thread it through both
// the read and the write.
func goodGuardedFlow(c *cache, r *registry, hash uint64, score float64) float64 {
	gen := r.Generation()
	if s, ok := c.lookup(hash, gen); ok {
		return s
	}
	c.store(hash, gen, score)
	return score
}

// A cache whose hit counter is atomic: its Add is the hit marker, so the
// same ordering rule applies.
type atomicCache struct {
	entries map[uint64]*entry
	hits    atomic.Int64
}

func (c *atomicCache) lookup(hash uint64, gen int64) (float64, bool) {
	e, ok := c.entries[hash]
	if !ok || e.gen != gen {
		return 0, false
	}
	c.hits.Add(1)
	return e.score, true
}

func (c *atomicCache) badAtomicHitNoGate(hash uint64) (float64, bool) {
	e, ok := c.entries[hash]
	if !ok {
		return 0, false
	}
	c.hits.Add(1) // want `cache hit served without a preceding model-generation comparison`
	return e.score, true
}
