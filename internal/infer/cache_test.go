package infer

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ml"
	"repro/internal/onnx"
)

// TestScoreCacheComparesFullKey forces a collision in the low 64 bits (the
// lane that picks the bucket): keys differing only in the high lane are
// distinct entries, never each other's hit.
func TestScoreCacheComparesFullKey(t *testing.T) {
	c := newScoreCache(64)
	a := onnx.RowKey{Hi: 1, Lo: 0xfeedface}
	b := onnx.RowKey{Hi: 2, Lo: 0xfeedface}
	c.store(a, 1, 7, 0.25)
	if s, ok := c.lookup(b, 1, 7); ok {
		t.Fatalf("key with a different high lane hit, serving %v", s)
	}
	c.store(b, 1, 7, 0.75)
	for _, tc := range []struct {
		key  onnx.RowKey
		want float64
	}{{a, 0.25}, {b, 0.75}} {
		if s, ok := c.lookup(tc.key, 1, 7); !ok || s != tc.want {
			t.Fatalf("lookup(%+v) = %v, %v; want %v, true", tc.key, s, ok, tc.want)
		}
	}
	if n := c.len(); n != 2 {
		t.Fatalf("occupancy %d, want 2", n)
	}
}

// TestScoreCacheClockEviction pins CLOCK within a bucket: a full bucket
// evicts the first slot past the hand whose entry was not hit since the
// hand last passed, so entries that keep hitting survive a stream of
// one-off rows, and occupancy never exceeds the ways.
func TestScoreCacheClockEviction(t *testing.T) {
	c := newScoreCache(cacheWays) // one bucket
	key := func(i int) onnx.RowKey { return onnx.RowKey{Hi: uint64(i), Lo: uint64(i) * 0x9e3779b97f4a7c15} }
	for i := 0; i < cacheWays; i++ {
		c.store(key(i), 1, 1, float64(i))
	}
	if n := c.len(); n != cacheWays {
		t.Fatalf("occupancy %d after filling, want %d", n, cacheWays)
	}
	c.store(key(3), 1, 1, 3) // re-storing a present key takes no new slot
	if n := c.len(); n != cacheWays {
		t.Fatalf("occupancy %d after a re-store, want %d", n, cacheWays)
	}

	hot := []int{0, 1, 2, 3}
	for i := 100; i < 140; i++ {
		for _, h := range hot {
			if _, ok := c.lookup(key(h), 1, 1); !ok {
				t.Fatalf("hot key %d evicted before one-off key %d", h, i)
			}
		}
		c.store(key(i), 1, 1, float64(i))
		if n := c.len(); n != cacheWays {
			t.Fatalf("occupancy %d, want %d", n, cacheWays)
		}
		if c.buckets[0].find(key(i)) < 0 { // find, not lookup: no reference bit
			t.Fatalf("key %d missing right after its store", i)
		}
	}
	for i := 4; i < cacheWays; i++ {
		if _, ok := c.lookup(key(i), 1, 1); ok {
			t.Fatalf("cold key %d survived 40 one-off stores", i)
		}
	}

	// With nothing referenced, the hand takes the bucket in slot order.
	c = newScoreCache(cacheWays)
	for i := 0; i < 2*cacheWays; i++ {
		c.store(key(i), 1, 1, float64(i))
	}
	for i := 0; i < 2*cacheWays; i++ {
		if _, ok := c.lookup(key(i), 1, 1); ok != (i >= cacheWays) {
			t.Fatalf("key %d present=%v after a full unreferenced sweep", i, ok)
		}
	}

	// A stale entry is dropped on the lookup that finds it.
	if _, ok := c.lookup(key(cacheWays), 2, 1); ok {
		t.Fatal("served an entry from an older generation")
	}
	if n := c.len(); n != cacheWays-1 {
		t.Fatalf("occupancy %d after a stale eviction, want %d", n, cacheWays-1)
	}
	if hits, misses, stale := c.stats(); hits != cacheWays || misses != cacheWays+1 || stale != 1 {
		t.Fatalf("stats hits=%d misses=%d stale=%d", hits, misses, stale)
	}
}

// TestScoreCacheOccupancy fills a default-size cache past capacity with
// distinct keys: occupancy stays within capacity and most of it is used
// (8-way buckets leave little slack unused).
func TestScoreCacheOccupancy(t *testing.T) {
	const capacity = 65536
	c := newScoreCache(capacity)
	seed := onnx.KeySeed("churn")
	rng := ml.NewRand(3)
	b := &onnx.Batch{N: 1, Cols: []onnx.Column{{Nums: []float64{0}}}}
	for i := 0; i < 2*capacity; i++ {
		b.Cols[0].Nums[0] = rng.Float64()
		c.store(b.RowKey(seed, 0), 1, 1, 0)
	}
	if n := c.len(); n > capacity || n < capacity*99/100 {
		t.Fatalf("occupancy %d after %d distinct stores, want in [%d, %d]", n, 2*capacity, capacity*99/100, capacity)
	}
}

// TestScoreCacheConcurrentGenerationBump races stores and lookups on
// overlapping keys against generation bumps. Every score encodes the
// generation it was computed under, so any hit must decode to exactly the
// generation the reader asked with.
func TestScoreCacheConcurrentGenerationBump(t *testing.T) {
	c := newScoreCache(512)
	var gen atomic.Int64
	gen.Store(1)
	scoreOf := func(k int, g int64) float64 { return float64(g)*1e6 + float64(k) }
	stop := make(chan struct{})
	var bumper sync.WaitGroup
	bumper.Add(1)
	go func() {
		defer bumper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				gen.Add(1)
			}
		}
	}()

	var workers sync.WaitGroup
	var hits atomic.Int64
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			rng := ml.NewRand(uint64(w) + 1)
			for i := 0; i < 20000; i++ {
				k := rng.Intn(2048)
				key := onnx.RowKey{Hi: uint64(k) * 31, Lo: uint64(k) * 0x9e3779b97f4a7c15}
				g := gen.Load()
				if s, ok := c.lookup(key, g, 9); ok {
					hits.Add(1)
					if s != scoreOf(k, g) {
						t.Errorf("key %d at generation %d served %v, want %v", k, g, s, scoreOf(k, g))
						return
					}
					continue
				}
				c.store(key, g, 9, scoreOf(k, g))
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	bumper.Wait()
	if n := c.len(); n > 512 {
		t.Fatalf("occupancy %d over capacity 512", n)
	}
	h, m, _ := c.stats()
	if h != hits.Load() || h+m != 4*20000 {
		t.Fatalf("stats hits=%d misses=%d, counted %d hits over %d lookups", h, m, hits.Load(), 4*20000)
	}
}

// BenchmarkScoreCache compares the cache's per-row costs with one
// single-row native scoring call of the demo churn model: op=hit is key +
// lookup on a warm cache, op=miss is key + missed lookup + store, and
// op=native is the RunInto a hit saves.
func BenchmarkScoreCache(b *testing.B) {
	g := benchGraph(b)
	rows := benchRows(512)
	seed := onnx.KeySeed(g.Name)
	fp := g.Fingerprint()

	b.Run("op=hit", func(b *testing.B) {
		c := newScoreCache(65536)
		for _, r := range rows {
			c.store(r.RowKey(seed, 0), 1, fp, 0.5)
		}
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, ok := c.lookup(rows[i%len(rows)].RowKey(seed, 0), 1, fp); !ok {
				b.Fatal("warm cache missed")
			}
			i++
		}
	})

	b.Run("op=miss", func(b *testing.B) {
		c := newScoreCache(65536)
		b.ReportAllocs()
		var gen int64
		i := 0
		for b.Loop() {
			if i%len(rows) == 0 {
				gen++ // every row is new again under the next generation
			}
			key := rows[i%len(rows)].RowKey(seed, 0)
			if _, ok := c.lookup(key, gen, fp); !ok {
				c.store(key, gen, fp, 0.5)
			}
			i++
		}
	})

	b.Run("op=native", func(b *testing.B) {
		sess, err := onnx.NewSession(g)
		if err != nil {
			b.Fatal(err)
		}
		out := make([]float64, 1)
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if err := sess.RunInto(rows[i%len(rows)], out); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
