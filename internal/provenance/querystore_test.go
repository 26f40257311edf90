package provenance

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/sql"
)

// refCapture is capture without compact queries: every statement becomes
// an ordinary entity and every edge goes through the public API, one call
// at a time. Run sequentially it must build exactly the graph the tracker
// builds.
func refCapture(c *Catalog, seq int, stmt sql.Statement, text, user string) {
	acc := sql.Analyze(stmt)
	q := c.NewVersion(TypeQuery, "q"+strconv.Itoa(seq), Attrs{{"text", text}, {"kind", stmtKind(stmt)}})
	if user != "" {
		c.AddEdge(q.ID, c.Ensure(TypeUser, user).ID, EdgeIssuedBy)
	}
	for _, tab := range acc.ReadTables {
		c.AddEdge(q.ID, c.Ensure(TypeTable, tab).ID, EdgeReads)
	}
	readCols := acc.Columns
	if sel, ok := stmt.(*sql.SelectStmt); ok {
		readCols = outputColumns(sel)
	}
	for _, qual := range slices.Sorted(maps.Keys(readCols)) {
		for _, col := range readCols[qual] {
			owner := qual
			if owner == "" {
				if len(acc.ReadTables) == 1 {
					owner = acc.ReadTables[0]
				} else if len(acc.WriteTables) == 1 {
					owner = acc.WriteTables[0]
				} else {
					owner = "?"
				}
			}
			ce := c.Ensure(TypeColumn, owner+"."+col)
			c.AddEdge(q.ID, ce.ID, EdgeReads)
			if owner != "?" {
				c.AddEdge(c.Ensure(TypeTable, owner).ID, ce.ID, EdgeHasColumn)
			}
		}
	}
	for _, tab := range acc.WriteTables {
		c.Ensure(TypeTable, tab)
		te := c.NewVersion(TypeTable, tab, nil)
		c.AddEdge(q.ID, te.ID, EdgeWrites)
		for _, col := range writtenColumns(stmt) {
			name := tab + "." + col
			c.Ensure(TypeColumn, name)
			ce := c.NewVersion(TypeColumn, name, nil)
			c.AddEdge(q.ID, ce.ID, EdgeWrites)
			c.AddEdge(te.ID, ce.ID, EdgeHasColumn)
		}
	}
	for _, m := range acc.Models {
		c.AddEdge(q.ID, c.Ensure(TypeModel, m).ID, EdgeScores)
	}
}

// twinCatalogs drives a tracker-fed catalog and a reference-fed one with
// the same operations.
type twinCatalogs struct {
	got, want *Catalog
	tr        *SQLTracker
	seq       int
}

func newTwins() *twinCatalogs {
	got := NewCatalog()
	return &twinCatalogs{got: got, want: NewCatalog(), tr: NewSQLTracker(got)}
}

func (tw *twinCatalogs) capture(t *testing.T, query, user string) {
	t.Helper()
	stmt, err := sql.ParseOne(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	tw.seq++
	got := tw.tr.CaptureStmt(stmt, query, user)
	refCapture(tw.want, tw.seq, stmt, query, user)
	if want := tw.want.Latest(TypeQuery, "q"+strconv.Itoa(tw.seq)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: captured %+v, reference %+v", query, got, want)
	}
}

// do applies one catalog operation to both catalogs.
func (tw *twinCatalogs) do(fn func(c *Catalog)) {
	fn(tw.got)
	fn(tw.want)
}

// check compares every read of the two catalogs.
func (tw *twinCatalogs) check(t *testing.T) {
	t.Helper()
	got, want := tw.got, tw.want
	gn, ge := got.Size()
	wn, we := want.Size()
	if gn != wn || ge != we {
		t.Fatalf("Size = %d nodes, %d edges; reference %d, %d", gn, ge, wn, we)
	}
	if !reflect.DeepEqual(got.allEdges(), want.allEdges()) {
		t.Fatal("edge lists differ")
	}
	ents := want.allEntities()
	if !reflect.DeepEqual(got.allEntities(), ents) {
		t.Fatal("entity sets differ")
	}
	ids := []string{"unknown:x", "query:q0@v1", "query:q999@v1"}
	names := map[EntityType]map[string]bool{}
	for id, e := range ents {
		ids = append(ids, id)
		if names[e.Type] == nil {
			names[e.Type] = map[string]bool{}
		}
		names[e.Type][e.Name] = true
	}
	ids = append(ids, want.nodeIDs...) // edge endpoints that are not entities
	sort.Strings(ids)
	for _, id := range ids {
		if g, w := got.Get(id), want.Get(id); !reflect.DeepEqual(g, w) {
			t.Fatalf("Get(%s) = %+v, reference %+v", id, g, w)
		}
		if g, w := got.EdgesFrom(id), want.EdgesFrom(id); !reflect.DeepEqual(g, w) {
			t.Fatalf("EdgesFrom(%s) = %v, reference %v", id, g, w)
		}
		if g, w := got.EdgesTo(id), want.EdgesTo(id); !reflect.DeepEqual(g, w) {
			t.Fatalf("EdgesTo(%s) = %v, reference %v", id, g, w)
		}
		for _, dir := range []Direction{Upstream, Downstream} {
			for _, depth := range []int{0, 1, 2} {
				if g, w := got.Lineage(id, dir, depth), want.Lineage(id, dir, depth); !reflect.DeepEqual(g, w) {
					t.Fatalf("Lineage(%s, %v, %d) = %d entities, reference %d", id, dir, depth, len(g), len(w))
				}
			}
		}
	}
	for typ, set := range names {
		if g, w := got.EntitiesOfType(typ), want.EntitiesOfType(typ); !reflect.DeepEqual(g, w) {
			t.Fatalf("EntitiesOfType(%s) differs", typ)
		}
		for name := range set {
			if g, w := got.Latest(typ, name), want.Latest(typ, name); !reflect.DeepEqual(g, w) {
				t.Fatalf("Latest(%s, %s) = %+v, reference %+v", typ, name, g, w)
			}
			if g, w := got.Versions(typ, name), want.Versions(typ, name); !reflect.DeepEqual(g, w) {
				t.Fatalf("Versions(%s, %s) differ", typ, name)
			}
		}
	}
	gc, gres := Compress(got)
	wc, wres := Compress(want)
	if gres != wres || !reflect.DeepEqual(gc.allEdges(), wc.allEdges()) {
		t.Fatalf("Compress = %+v, reference %+v", gres, wres)
	}
}

var twinQueries = []string{
	"SELECT id, PREDICT(churn, age, income) AS s FROM customers WHERE id = %d",
	"SELECT region, count(*) AS n, avg(PREDICT(churn, age, income)) AS s FROM customers WHERE income > %d GROUP BY region",
	"SELECT c.id, o.total FROM customers c JOIN orders o ON c.id = o.cid WHERE o.total > %d",
	"SELECT id, total FROM customers, orders WHERE id = %d",
	"SELECT %d",
	"INSERT INTO orders (cid, total) VALUES (%d, 1.5)",
	"UPDATE customers SET income = income + 1 WHERE id = %d",
	"DELETE FROM orders WHERE cid = %d",
	"SELECT x FROM (SELECT id AS x FROM customers WHERE id > %d) AS s",
}

// TestCompactQueriesMatchReference captures a mix of reads and writes from
// several users (and none) and requires every catalog read to match the
// reference capture, also after the generic API writes to compact queries
// and around pre-existing query names.
func TestCompactQueriesMatchReference(t *testing.T) {
	tw := newTwins()
	users := []string{"alice", "bob", ""}
	run := func(from, to int) {
		for i := from; i < to; i++ {
			tw.capture(t, fmt.Sprintf(twinQueries[i%len(twinQueries)], i), users[i%len(users)])
		}
	}
	run(0, 60)
	if tw.got.liveRecs == 0 {
		t.Fatal("no read was kept compact")
	}
	tw.check(t)

	// Writes through the generic API promote the queries they touch.
	tw.do(func(c *Catalog) {
		c.SetAttr("query:q1@v1", "note", "reviewed")
		c.AddEdge("query:q2@v1", "table:audit@v1", "CUSTOM")
		c.AddEdge("model:churn@v1", "query:q10@v1", "CUSTOM")
		c.AddEdge("query:q11@v1", "model:churn@v1", EdgeScores) // a duplicate of a compact edge
		c.NewVersion(TypeQuery, "q19", nil)
		c.Ensure(TypeQuery, "q28")
		c.Ensure(TypeQuery, "q0")
	})
	tw.check(t)

	// Names that already exist as entities or edge endpoints are captured
	// as ordinary entities (a new version, or the dangling node's entity).
	tw.do(func(c *Catalog) {
		c.Ensure(TypeQuery, "q63")
		c.AddEdge("table:customers@v1", "query:q64@v1", "CUSTOM")
	})
	run(60, 120)
	tw.check(t)

	var log []string
	for i := 120; i < 150; i++ {
		log = append(log, fmt.Sprintf(twinQueries[i%len(twinQueries)], i))
	}
	for _, q := range log {
		tw.capture(t, q, "carol")
	}
	tw.check(t)
}

// TestCompactQueryFootprint pins the saving compact queries exist for: a
// stream of point reads retains a few dozen bytes per statement, not the
// ~800 an ordinary entity with its edges costs.
func TestCompactQueryFootprint(t *testing.T) {
	c := NewCatalog()
	tr := NewSQLTracker(c)
	const n = 20000
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT id, PREDICT(churn, age, income, tenure) AS s FROM customers WHERE id = %d", i)
	}
	stmt, err := sql.ParseOne(texts[0])
	if err != nil {
		t.Fatal(err)
	}
	tr.CaptureStmt(stmt, texts[0], "bench")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, text := range texts[1:] {
		tr.CaptureStmt(stmt, text, "bench")
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(texts)
	perQuery := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (n - 1)
	t.Logf("%.0f bytes per read", perQuery)
	if perQuery > 160 {
		t.Fatalf("capture retains %.0f bytes per point read, want at most 160", perQuery)
	}
	if nodes, edges := c.Size(); nodes < n || edges < 7*n {
		t.Fatalf("Size = %d nodes, %d edges after %d reads", nodes, edges, n)
	}
}
