package engine

// Parallel-vs-serial equivalence pinning: every morsel-parallel operator
// (filter, hash join, GROUP BY, DISTINCT, ORDER BY) must produce the same
// rows in the same order at Parallelism 1 and at many workers. Float
// aggregates compare under a tiny relative tolerance (parallel merging
// re-associates the additions); everything else must match exactly.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/opt"
	"repro/internal/sql"
)

// parallelTestDB builds a skewed fact table (wide enough to clear the
// parallel threshold several times over) plus a dimension table. The skew —
// 60% of rows in one group, a hot join key, NULLs sprinkled into the
// aggregate column — is the morsel queue's reason to exist.
func parallelTestDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := NewDB()
	seed := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	ids := make([]int64, rows)
	grps := make([]int64, rows)
	vals := make([]float64, rows)
	cats := make([]string, rows)
	flags := make([]bool, rows)
	catNames := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		if next()%10 < 6 {
			grps[i] = 7 // hot group and hot join key
		} else {
			grps[i] = int64(next() % 500)
		}
		vals[i] = float64(next()%1_000_000)/997.0 - 300
		cats[i] = catNames[next()%4]
		flags[i] = next()%3 == 0
	}
	if _, err := db.CreateTableFromColumns("facts",
		[]string{"id", "grp", "val", "cat", "flag"},
		[]Column{IntColumn(ids), IntColumn(grps), FloatColumn(vals), StringColumn(cats), BoolColumn(flags)}); err != nil {
		t.Fatal(err)
	}
	const dimRows = 600
	ks := make([]int64, dimRows)
	names := make([]string, dimRows)
	for i := 0; i < dimRows; i++ {
		ks[i] = int64(i % 500) // duplicate keys: probes fan out
		names[i] = fmt.Sprintf("d%03d", i)
	}
	if _, err := db.CreateTableFromColumns("dim",
		[]string{"k", "name"},
		[]Column{IntColumn(ks), StringColumn(names)}); err != nil {
		t.Fatal(err)
	}
	return db
}

// runAt executes a SELECT at the given worker cap.
func runAt(t testing.TB, db *DB, query string, workers int) *RowSet {
	t.Helper()
	stmt, err := sql.ParseOne(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		t.Fatalf("%s: not a SELECT", query)
	}
	rs, err := db.selectRows(context.Background(), sel, ExecOptions{Level: opt.LevelParallel, Parallelism: workers})
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", query, workers, err)
	}
	return rs
}

// requireSameRowSet compares two rowsets cell by cell: exact for ints,
// strings and bools, relative 1e-9 for floats (parallel merge re-associates
// float additions).
func requireSameRowSet(t *testing.T, query string, serial, parallel *RowSet) {
	t.Helper()
	if serial.N != parallel.N {
		t.Fatalf("%s: serial %d rows, parallel %d rows", query, serial.N, parallel.N)
	}
	if len(serial.Cols) != len(parallel.Cols) {
		t.Fatalf("%s: column count differs: %d vs %d", query, len(serial.Cols), len(parallel.Cols))
	}
	for c := range serial.Cols {
		if serial.Cols[c].Type != parallel.Cols[c].Type {
			t.Fatalf("%s: column %d type differs: %v vs %v", query, c, serial.Cols[c].Type, parallel.Cols[c].Type)
		}
	}
	for r := 0; r < serial.N; r++ {
		for c := range serial.Cols {
			sv := serial.Cols[c].Value(r)
			pv := parallel.Cols[c].Value(r)
			if sv.Null != pv.Null {
				t.Fatalf("%s: row %d col %d null mismatch: %v vs %v", query, r, c, sv, pv)
			}
			if sv.Null {
				continue
			}
			if sv.Kind == TypeFloat {
				d := math.Abs(sv.F - pv.F)
				if d > 1e-9*math.Max(1, math.Abs(sv.F)) {
					t.Fatalf("%s: row %d col %d float mismatch: %v vs %v", query, r, c, sv.F, pv.F)
				}
				continue
			}
			if sv != pv {
				t.Fatalf("%s: row %d col %d mismatch: %v vs %v", query, r, c, sv, pv)
			}
		}
	}
}

// equivalenceQueries cover every parallel operator, including the
// accumulator-merge corners (AVG, MIN/MAX, COUNT/SUM DISTINCT), LEFT JOIN
// unmatched padding, residual join predicates, multi-key sorts with heavy
// ties, and skewed filters.
var equivalenceQueries = []string{
	`SELECT id, grp FROM facts WHERE val > 400.0 AND cat <> 'beta'`,
	`SELECT id FROM facts WHERE grp = 7 AND flag`,
	`SELECT grp, count(*) AS n, sum(val) AS s, avg(val) AS a, min(val) AS lo, max(val) AS hi
		FROM facts GROUP BY grp`,
	`SELECT cat, count(val) AS nv, max(val) AS mx FROM facts GROUP BY cat`,
	`SELECT grp, count(CASE WHEN flag THEN val END) AS n, sum(CASE WHEN flag THEN val END) AS s,
		min(CASE WHEN flag THEN val END) AS lo FROM facts GROUP BY grp`,
	`SELECT grp, count(DISTINCT cat) AS dc, sum(DISTINCT val) AS ds, min(DISTINCT val) AS dm
		FROM facts GROUP BY grp`,
	`SELECT count(*) AS n, sum(val) AS s, avg(val) AS a FROM facts`,
	`SELECT DISTINCT cat, grp FROM facts`,
	`SELECT DISTINCT flag FROM facts`,
	`SELECT f.id, d.name FROM facts f JOIN dim d ON f.grp = d.k WHERE f.val > 650.0`,
	`SELECT f.id, d.name FROM facts f LEFT JOIN dim d ON f.grp = d.k AND d.name > 'd250' WHERE f.id < 20000`,
	`SELECT count(*) AS n FROM facts f JOIN dim d ON f.grp = d.k AND f.cat = 'alpha'`,
	`SELECT id, grp, cat, flag FROM facts ORDER BY cat, flag DESC, grp`,
	`SELECT grp, val, id FROM facts ORDER BY val DESC, id`,
	`SELECT cat, count(*) AS n FROM facts GROUP BY cat ORDER BY n DESC, cat`,
}

func TestParallelSerialEquivalence(t *testing.T) {
	db := parallelTestDB(t, 50_000)
	for _, q := range equivalenceQueries {
		serial := runAt(t, db, q, 1)
		parallel := runAt(t, db, q, 8)
		requireSameRowSet(t, q, serial, parallel)
	}
}

// TestParallelEquivalenceManyWorkerCounts sweeps worker counts across one
// aggregate and one sort so morsel-count edge cases (workers > morsels,
// odd chunk counts in the merge tree) are covered.
func TestParallelEquivalenceManyWorkerCounts(t *testing.T) {
	db := parallelTestDB(t, parallelThreshold+123)
	queries := []string{
		`SELECT grp, count(*) AS n, sum(val) AS s FROM facts GROUP BY grp`,
		`SELECT cat, id FROM facts ORDER BY cat, id DESC`,
	}
	for _, q := range queries {
		serial := runAt(t, db, q, 1)
		for _, w := range []int{2, 3, 5, 16, 64} {
			requireSameRowSet(t, fmt.Sprintf("%s @%d", q, w), serial, runAt(t, db, q, w))
		}
	}
}

// TestParallelConcurrentQueries runs parallel queries from many goroutines
// at once — under -race this pins the morsel queue, the scratch pools, and
// the thread-local aggregation states against each other.
func TestParallelConcurrentQueries(t *testing.T) {
	db := parallelTestDB(t, 30_000)
	queries := []string{
		`SELECT grp, count(*) AS n, sum(val) AS s FROM facts GROUP BY grp`,
		`SELECT count(*) AS n FROM facts f JOIN dim d ON f.grp = d.k`,
		`SELECT DISTINCT cat, grp FROM facts`,
		`SELECT val, id FROM facts WHERE val > 500.0 ORDER BY val, id`,
	}
	want := make([]*RowSet, len(queries))
	for i, q := range queries {
		want[i] = runAt(t, db, q, 1)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			got := runAt(t, db, q, 4)
			if got.N != want[g%len(queries)].N {
				errs <- fmt.Sprintf("%s: got %d rows, want %d", q, got.N, want[g%len(queries)].N)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestReportParallelismDegree pins the EXPLAIN surface: the optimizer
// report carries the morsel worker cap the executor resolves, as EXPLAIN
// fills it in from the plan and the execution options.
func TestReportParallelismDegree(t *testing.T) {
	db := parallelTestDB(t, parallelThreshold)
	stmt, err := sql.ParseOne(`SELECT count(*) AS n FROM facts`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sql.SelectStmt)
	report := func(o ExecOptions) *opt.Report {
		plan, err := db.PlanSelect(sel, o.Level)
		if err != nil {
			t.Fatal(err)
		}
		plan.Report.Parallelism = o.MaxWorkers()
		return &plan.Report
	}
	rep := report(ExecOptions{Level: opt.LevelParallel, Parallelism: 6})
	if rep.Parallelism != 6 {
		t.Fatalf("report parallelism = %d, want 6", rep.Parallelism)
	}
	if !strings.Contains(rep.String(), "workers=6") {
		t.Fatalf("report string %q missing workers=6", rep.String())
	}
	rep = report(ExecOptions{Level: opt.LevelVectorized})
	if rep.Parallelism != 1 {
		t.Fatalf("sub-parallel level reports %d workers, want 1", rep.Parallelism)
	}
}

// TestParallelAggregateEmptyGroups pins the degenerate shapes: empty input,
// global aggregates, and a group count near the worker count.
func TestParallelAggregateEmptyGroups(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTableFromColumns("tiny",
		[]string{"g", "v"},
		[]Column{IntColumn(nil), FloatColumn(nil)}); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecAsContext(context.Background(), `SELECT count(*) AS n, sum(v) AS s FROM tiny`, "t",
		ExecOptions{Level: opt.LevelParallel, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != 0 {
		t.Fatalf("count over empty table = %d", got)
	}
}
