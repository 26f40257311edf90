package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/opt"
	"repro/internal/sql"
)

// zoneTestDB builds z(id int, f float, s text) with per-morsel ranges that
// differ: ids run from -n/2 upwards except for one shuffled morsel, and f
// holds NaNs in two morsels and a -0.0 in another.
func zoneTestDB(t testing.TB, n int) *DB {
	t.Helper()
	ids := make([]int64, n)
	fs := make([]float64, n)
	ss := make([]string, n)
	seed := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		ids[i] = int64(i - n/2)
		if i/morselRows == 3 {
			ids[i] = int64(seed%uint64(n)) - int64(n/2)
		}
		fs[i] = float64(i%5000)*0.5 - 1000
		ss[i] = fmt.Sprint(i % 7)
	}
	for _, i := range []int{2*morselRows + 17, 5*morselRows + 1, 5*morselRows + 2} {
		if i < n {
			fs[i] = math.NaN()
		}
	}
	if 4*morselRows < n {
		fs[4*morselRows] = math.Copysign(0, -1)
	}
	db := NewDB()
	if _, err := db.CreateTableFromColumns("z", []string{"id", "f", "s"},
		[]Column{IntColumn(ids), FloatColumn(fs), StringColumn(ss)}); err != nil {
		t.Fatal(err)
	}
	return db
}

// zoneConditions cover each operator, the literal on either side, negative
// ints, NaN floats, an Int column against a float literal, and conjunct
// chains, including ones where a conjunct can raise a row error: a later
// prunable conjunct must not hide an earlier conjunct's error.
var zoneConditions = []string{
	"id = 5000", "5000 = id", "id = -3", "-3 = id", "id = 99999999", "id = -99999999",
	"id < -100", "-100 > id", "id <= 0", "0 >= id", "id > 9000", "9000 < id",
	"id >= 20000", "20000 <= id", "id < -20000", "id <> 5",
	"id = 12345.0", "id > 12345.5", "id < -0.5",
	"f = 3", "f = 3.0", "f < -999.5", "f > 1499", "f >= 1499.5", "f <= -1000", "f = 0", "f = -0.0",
	"f > 1e308", "f < -1e308",
	"f >= 1000 AND id < 8000", "id = 5000 AND f > 0", "id > 100 AND id < 200 AND f <= 1000",
	"id = -12000", "-12000 >= id",
	"id = -99999999 AND id / 0 > 1", "id = 5 AND id / 0 > 1", "id / 0 > 1 AND id = 5",
	"id / 0 > 1 AND id = 99999999", "id = id / 0 AND id = 99999999", "NOT (id / 0 > 1) AND id = 99999999",
	"s = '3' AND id = 5000", "id = 5000 AND s = '3'",
}

// runZone executes q and renders the outcome (rows or error) for exact
// comparison — NaN renders as "NaN", so it compares equal to itself.
func runZone(t *testing.T, db *DB, q string, o ExecOptions) (string, *ExecCounters) {
	t.Helper()
	stmt, err := sql.ParseOne(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	c := &ExecCounters{}
	o.Counters = c
	rs, err := db.selectRows(context.Background(), stmt.(*sql.SelectStmt), o)
	if err != nil {
		return "error: " + err.Error(), c
	}
	return fmt.Sprint(ResultFromRowSet(rs).Rows), c
}

// checkZoneEquivalence runs every condition pruned and unpruned — the
// unpruned twin ORs in a false literal, which a zone map cannot use — on
// the streaming path and on the materialized (ORDER BY) path, at serial
// (when serialToo) and morsel-parallel levels, and demands identical rows
// in identical order (or the same error). It returns the rows pruned per
// condition.
func checkZoneEquivalence(t *testing.T, db *DB, from string, serialToo bool) map[string]int64 {
	t.Helper()
	pruned := map[string]int64{}
	levels := []ExecOptions{{Level: opt.LevelParallel, Parallelism: 2}}
	if serialToo {
		levels = append(levels, ExecOptions{Level: opt.LevelVectorized})
	}
	for _, cond := range zoneConditions {
		for _, o := range levels {
			for _, tail := range []string{"", " ORDER BY id, s"} {
				q := "SELECT id, f, s FROM " + from + " WHERE " + cond + tail
				ref := "SELECT id, f, s FROM " + from + " WHERE (" + cond + ") OR 1 = 0" + tail
				got, c := runZone(t, db, q, o)
				want, rc := runZone(t, db, ref, o)
				if got != want {
					t.Fatalf("%s (level %v):\n pruned   %.300s\n unpruned %.300s", q, o.Level, got, want)
				}
				if rc.RowsPruned.Load() != 0 {
					t.Fatalf("%s: the unpruned twin pruned %d rows", ref, rc.RowsPruned.Load())
				}
				pruned[cond] = c.RowsPruned.Load()
			}
		}
	}
	return pruned
}

// TestZonePruningEquivalence: pruned and unpruned scans return identical
// results, before and after INSERT / UPDATE / DELETE, and pruning only
// fires where it is allowed.
func TestZonePruningEquivalence(t *testing.T) {
	const n = 6*morselRows + 1000
	db := zoneTestDB(t, n)

	pruned := checkZoneEquivalence(t, db, "z", true)
	for _, cond := range []string{"id = 5000", "5000 = id", "id = -3", "id < -100", "9000 < id", "f > 1499", "id = 5000 AND f > 0"} {
		if pruned[cond] == 0 {
			t.Errorf("%s: nothing pruned", cond)
		}
	}
	for _, cond := range []string{"id = 12345.0", "id > 12345.5", "id / 0 > 1 AND id = 5", "id <> 5"} {
		if pruned[cond] != 0 {
			t.Errorf("%s: pruned %d rows; must never prune", cond, pruned[cond])
		}
	}
	// f = 3 matches NaN rows ("NaN is equal to everything"): the morsels
	// holding one must be read even though 3 lies outside their range.
	if _, c := runZone(t, db, "SELECT id FROM z WHERE f = 3", ExecOptions{Level: opt.LevelVectorized}); c.RowsScanned.Load() < 2*morselRows {
		t.Errorf("f = 3 read %d rows; the NaN morsels must not be pruned", c.RowsScanned.Load())
	}

	// Time travel never prunes.
	v0, err := db.Table("z")
	if err != nil {
		t.Fatal(err)
	}
	before := v0.Version()
	if _, err := db.Exec("INSERT INTO z VALUES (777777, 1.5, 'x'), (-777777, NULL, 'y')"); err != nil {
		t.Fatal(err)
	}
	ttPruned := checkZoneEquivalence(t, db, fmt.Sprintf("z VERSION %d", before), false)
	for cond, p := range ttPruned {
		if p != 0 {
			t.Fatalf("time-travel scan pruned %d rows for %s", p, cond)
		}
	}

	// After each kind of write, current-version scans stay exact.
	checkZoneEquivalence(t, db, "z", false)
	for _, stmt := range []string{
		"UPDATE z SET id = id + 100000 WHERE id < 0",
		"DELETE FROM z WHERE id > 110000",
		"INSERT INTO z VALUES (5000, 2.5, 'new'), (-3, 0.0, 'neg')",
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		checkZoneEquivalence(t, db, "z", false)
	}
}

// TestZoneMapAppendExtends: after appends the zone map is extended, not
// rebuilt, and the extension equals a from-scratch build.
func TestZoneMapAppendExtends(t *testing.T) {
	db := zoneTestDB(t, 2*morselRows+100)
	tab, err := db.Table("z")
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, first := tab.zonedSnapshot()
	for _, stmt := range []string{
		"INSERT INTO z VALUES (-50000, 1e9, 'a')",
		"INSERT INTO z VALUES (60000, -1e9, 'b')",
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([][]Value, morselRows)
	for i := range rows {
		rows[i] = []Value{IntValue(int64(i)), FloatValue(math.NaN()), StringValue("c")}
	}
	if err := tab.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	cols, _, n, zm := tab.zonedSnapshot()
	if zm.version != tab.Version() || zm.rows != n {
		t.Fatalf("zone map describes version %d/%d rows, table is at %d/%d", zm.version, zm.rows, tab.Version(), n)
	}
	fresh := buildZoneMap(nil, cols, n, zm.version)
	if !reflect.DeepEqual(zm.cols, fresh.cols) {
		t.Fatal("extended zone map differs from a full rebuild")
	}
	if &zm.cols[0].min[0] == &first.cols[0].min[0] {
		t.Fatal("extension mutated the published map in place")
	}
	if _, err := db.Exec("UPDATE z SET f = 0 WHERE id = 60000"); err != nil {
		t.Fatal(err)
	}
	tab.mu.RLock()
	dropped := tab.zones == nil
	tab.mu.RUnlock()
	if !dropped {
		t.Fatal("a rewrite must drop the zone map")
	}
}

// TestZonePruningConcurrentAppends: pruned point and range scans racing
// appends never miss a row committed before the scan began, never see one
// committed after it ended, and agree with unpruned scans at the end.
func TestZonePruningConcurrentAppends(t *testing.T) {
	db := zoneTestDB(t, 3*morselRows)
	const base, appends = 1_000_000, 300
	var committed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO z VALUES (%d, %d.5, 'c')", base+i, i)); err != nil {
				errs <- err
				return
			}
			committed.Store(int64(i + 1))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := ExecOptions{Level: opt.LevelParallel, Parallelism: 2}
			for {
				lo := committed.Load()
				stmt, _ := sql.ParseOne(fmt.Sprintf("SELECT count(*) AS n FROM z WHERE id >= %d", base))
				rs, err := db.selectRows(context.Background(), stmt.(*sql.SelectStmt), o)
				if err != nil {
					errs <- err
					return
				}
				hi := committed.Load()
				got := ResultFromRowSet(rs).Rows[0][0].(int64)
				if got < lo || got > hi+1 {
					errs <- fmt.Errorf("reader %d: counted %d appended rows, committed was %d..%d", r, got, lo, hi)
					return
				}
				if lo > 0 {
					k := base + lo - 1 // committed before this point lookup began
					res, err := db.Exec(fmt.Sprintf("SELECT id FROM z WHERE id = %d", k))
					if err != nil {
						errs <- err
						return
					}
					if len(res.Rows) != 1 {
						errs <- fmt.Errorf("reader %d: point lookup of committed id %d found %d rows", r, k, len(res.Rows))
						return
					}
				}
				if hi == appends {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkZoneEquivalence(t, db, "z", false)
}

// TestZonePruningPointLookupCounters: `WHERE id = k` over 100 000 rows reads
// at most one morsel and reports the rest as pruned, on both scan paths.
func TestZonePruningPointLookupCounters(t *testing.T) {
	const rows = 100_000
	db := parallelTestDB(t, rows)
	for _, q := range []string{
		"SELECT id, val FROM facts WHERE id = 54321",
		"SELECT id, val FROM facts WHERE id = 54321 ORDER BY val",
	} {
		for _, o := range []ExecOptions{{Level: opt.LevelVectorized}, {Level: opt.LevelParallel, Parallelism: 2}} {
			got, c := runZone(t, db, q, o)
			if !strings.HasPrefix(got, "[[54321 ") {
				t.Fatalf("%s: got %.80s", q, got)
			}
			scanned, pruned := c.RowsScanned.Load(), c.RowsPruned.Load()
			if scanned > morselRows || scanned+pruned != rows {
				t.Fatalf("%s (level %v): scanned %d, pruned %d; want <= %d scanned and the rest pruned",
					q, o.Level, scanned, pruned, morselRows)
			}
		}
	}
}
