package provenance

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// refEdges is the straightforward edge store the interned catalog must
// match: string endpoints, a string dedup key, insertion order.
type refEdges struct {
	edges []Edge
	seen  map[string]bool
}

func (r *refEdges) add(from, to, label string, seq int64) bool {
	key := from + "|" + label + "|" + to
	if r.seen[key] {
		return false
	}
	r.seen[key] = true
	r.edges = append(r.edges, Edge{From: from, To: to, Label: label, Seq: seq})
	return true
}

// TestCatalogEdgesMatchReference drives the catalog and the reference
// with the same edges — duplicates, self-loops, endpoints that are not
// entities, and thousands of edges — and requires identical EdgesFrom,
// EdgesTo, Size and allEdges results.
func TestCatalogEdgesMatchReference(t *testing.T) {
	c := NewCatalog()
	ref := &refEdges{seen: map[string]bool{}}
	var ids []string
	for i := 0; i < 300; i++ {
		ids = append(ids, c.Ensure(TypeQuery, fmt.Sprintf("q%d", i)).ID)
	}
	ids = append(ids, "dangling:a", "dangling:b")
	labels := []string{EdgeReads, EdgeWrites, EdgeScores, EdgeHasColumn, "CUSTOM"}
	seed := uint64(12345)
	next := func(n int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
	for i := 0; i < 12000; i++ {
		from, to := ids[next(len(ids))], ids[next(len(ids))]
		if i%97 == 0 {
			to = from
		}
		label := labels[next(len(labels))]
		_, before := c.Size()
		c.AddEdge(from, to, label)
		_, after := c.Size()
		added := after > before
		if want := ref.add(from, to, label, c.seq); added != want {
			t.Fatalf("edge %d %s-%s->%s: catalog added=%v, reference %v", i, from, label, to, added, want)
		}
	}
	if _, n := c.Size(); n != len(ref.edges) {
		t.Fatalf("Size reports %d edges, reference has %d", n, len(ref.edges))
	}
	if !reflect.DeepEqual(c.allEdges(), ref.edges) {
		t.Fatal("edge list differs from the reference")
	}
	for _, id := range append(ids, "unknown:x") {
		var from, to []Edge
		for _, e := range ref.edges {
			if e.From == id {
				from = append(from, e)
			}
			if e.To == id {
				to = append(to, e)
			}
		}
		if got := c.EdgesFrom(id); !reflect.DeepEqual(got, from) {
			t.Fatalf("EdgesFrom(%s) = %d edges, reference %d", id, len(got), len(from))
		}
		if got := c.EdgesTo(id); !reflect.DeepEqual(got, to) {
			t.Fatalf("EdgesTo(%s) = %d edges, reference %d", id, len(got), len(to))
		}
	}
}

// TestCatalogConcurrentCapture captures from several goroutines at once
// (run under -race in CI) and checks nothing was lost or duplicated.
func TestCatalogConcurrentCapture(t *testing.T) {
	c := NewCatalog()
	tr := NewSQLTracker(c)
	const workers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", w)
			for i := 0; i < each; i++ {
				if _, err := tr.CaptureQuery(fmt.Sprintf("SELECT a, PREDICT(m, b) AS s FROM t WHERE id = %d", i), user); err != nil {
					t.Error(err)
					return
				}
				c.Lineage("table:t@v1", Upstream, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := len(c.EdgesTo("table:t@v1")); got != workers*each {
		t.Fatalf("table has %d incoming READS edges, want %d", got, workers*each)
	}
	if got := len(c.EdgesTo("model:m@v1")); got != workers*each {
		t.Fatalf("model has %d incoming SCORES edges, want %d", got, workers*each)
	}
	if got := len(c.Lineage("table:t@v1", Upstream, 1)); got != workers*each {
		t.Fatalf("upstream lineage of the table = %d queries, want %d", got, workers*each)
	}
}
