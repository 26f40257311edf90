package opt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/sql"
)

type fakeModels map[string]*onnx.Graph

func (f fakeModels) GraphFor(name string) (*onnx.Graph, error) {
	g, ok := f[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	return g, nil
}

// fakeCatalog serves fixed columns and statistics. Its statistics are
// versioned like engine.DB's: a test that changes stats after planning
// must bump version.
type fakeCatalog struct {
	cols    map[string][]string
	stats   map[string]onnx.Stats
	version int64
	memo    *ModelMemo
}

func (c *fakeCatalog) TableColumns(table string) ([]string, error) {
	cols, ok := c.cols[table]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", table)
	}
	return cols, nil
}

func (c *fakeCatalog) TableStats(table string) (onnx.Stats, StatsKey) {
	var id uint64 // distinct per table name, as engine.DB's ids are per table
	for _, b := range table {
		id = id*131 + uint64(b)
	}
	return c.stats[table], StatsKey{TableID: id, Version: c.version}
}

func (c *fakeCatalog) CompiledModels() *ModelMemo { return c.memo }

func testGraph(t *testing.T) *onnx.Graph {
	t.Helper()
	r := ml.NewRand(5)
	n := 300
	ages := make([]float64, n)
	regions := make([]string, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		ages[i] = 20 + r.Float64()*50
		regions[i] = []string{"us", "eu"}[r.Intn(2)]
		if ages[i] > 45 {
			y[i] = 1
		}
	}
	f := ml.NewFrame().AddNumeric("age", ages).AddCategorical("region", regions)
	p := ml.NewPipeline("m",
		ml.NewFeaturizer().With("age", &ml.StandardScaler{}).With("region", &ml.OneHotEncoder{}),
		&ml.LogisticRegression{Epochs: 30})
	if err := p.Fit(f, y); err != nil {
		t.Fatal(err)
	}
	g, err := onnx.Export(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func plan(t *testing.T, q string, models ModelProvider, cat CatalogInfo, level Level) *Plan {
	t.Helper()
	stmt, err := sql.ParseOne(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlanSelect(stmt.(*sql.SelectStmt), models, cat, level)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func defaultCatalog() *fakeCatalog {
	return &fakeCatalog{cols: map[string][]string{
		"customers": {"id", "age", "region"},
		"orders":    {"id", "cust_id", "amount"},
	}, memo: NewModelMemo()}
}

func TestPlanSimpleSelect(t *testing.T) {
	pl := plan(t, "SELECT id FROM customers WHERE age > 30", nil, defaultCatalog(), LevelFull)
	proj, ok := pl.Root.(*Project)
	if !ok {
		t.Fatalf("root is %T", pl.Root)
	}
	sc, ok := proj.Input.(*Scan)
	if !ok {
		t.Fatalf("input is %T, want Scan with pushed filter", proj.Input)
	}
	if len(sc.Filters) != 1 {
		t.Errorf("pushed filters = %d", len(sc.Filters))
	}
}

func TestPlanPredictExtraction(t *testing.T) {
	g := testGraph(t)
	models := fakeModels{"m": g}
	q := "SELECT id, PREDICT(m, age, region) AS s FROM customers WHERE PREDICT(m, age, region) > 0.5 AND age > 30"

	// LevelUDF: no extraction.
	pl := plan(t, q, models, defaultCatalog(), LevelUDF)
	if pl.Report.PredictsExtracted != 0 {
		t.Errorf("UDF level extracted %d predicts", pl.Report.PredictsExtracted)
	}

	// LevelVectorized: extraction, no pushdown.
	pl = plan(t, q, models, defaultCatalog(), LevelVectorized)
	if pl.Report.PredictsExtracted != 1 {
		t.Errorf("extracted = %d, want 1 (deduplicated)", pl.Report.PredictsExtracted)
	}
	if pl.Report.PushedDown != 0 {
		t.Errorf("vectorized level pushed down %d", pl.Report.PushedDown)
	}

	// LevelFull: pushdown fires; push-up must NOT fire (score projected).
	pl = plan(t, q, models, defaultCatalog(), LevelFull)
	if pl.Report.PushedDown != 1 {
		t.Errorf("pushdown = %d, want 1", pl.Report.PushedDown)
	}
	if pl.Report.PushedUp {
		t.Error("push-up must not fire when the score is projected")
	}
}

func TestPlanPushUpOnlyWhenScoreUnused(t *testing.T) {
	g := testGraph(t)
	models := fakeModels{"m": g}
	q := "SELECT id FROM customers WHERE PREDICT(m, age, region) >= 0.8"
	pl := plan(t, q, models, defaultCatalog(), LevelFull)
	if !pl.Report.PushedUp {
		t.Error("push-up should fire")
	}
	// The predict node's graph must have lost its sigmoid.
	var pn *Predict
	var walk func(n Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Predict:
			pn = x
			walk(x.Input)
		case *Project:
			walk(x.Input)
		case *Filter:
			walk(x.Input)
		case *Limit:
			walk(x.Input)
		case *Sort:
			walk(x.Input)
		}
	}
	walk(pl.Root)
	if pn == nil {
		t.Fatal("no Predict node in plan")
	}
	if pn.Graph.Model.PostSigmoid {
		t.Error("sigmoid not removed by push-up")
	}
	if pn.Compare == nil {
		t.Error("compare not fused")
	}
}

func TestPlanCompressionUsesStats(t *testing.T) {
	g := testGraph(t)
	models := fakeModels{"m": g}
	cat := defaultCatalog()
	cat.stats = map[string]onnx.Stats{
		"customers": {
			"age":    {HasRange: true, Min: 20, Max: 70},
			"region": {Categories: map[string]bool{"us": true}},
		},
	}
	q := "SELECT PREDICT(m, age, region) AS s FROM customers"
	pl := plan(t, q, models, cat, LevelFull)
	_ = pl
	// The "eu" category is absent from stats; with a linear model it may
	// only disappear if its coefficient became prunable. What must always
	// hold: the plan is valid and the graph validates.
	var pn *Predict
	var walk func(n Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Predict:
			pn = x
		case *Project:
			walk(x.Input)
		case *Filter:
			walk(x.Input)
		}
	}
	walk(pl.Root)
	if pn == nil {
		t.Fatal("no predict node")
	}
	if err := pn.Graph.Validate(); err != nil {
		t.Fatalf("compressed graph invalid: %v", err)
	}
	if len(pn.Args) != len(pn.Graph.Inputs) {
		t.Errorf("args (%d) out of sync with graph inputs (%d)", len(pn.Args), len(pn.Graph.Inputs))
	}
}

func TestPlanAggregateRewrite(t *testing.T) {
	pl := plan(t, `SELECT region, count(*) AS n, sum(age) AS s FROM customers
		GROUP BY region HAVING count(*) > 1 ORDER BY s DESC LIMIT 5`,
		nil, defaultCatalog(), LevelFull)
	lim, ok := pl.Root.(*Limit)
	if !ok {
		t.Fatalf("root %T, want Limit", pl.Root)
	}
	srt, ok := lim.Input.(*Sort)
	if !ok {
		t.Fatalf("below limit %T, want Sort", lim.Input)
	}
	proj, ok := srt.Input.(*Project)
	if !ok {
		t.Fatalf("below sort %T, want Project", srt.Input)
	}
	flt, ok := proj.Input.(*Filter)
	if !ok {
		t.Fatalf("below project %T, want Filter (HAVING)", proj.Input)
	}
	agg, ok := flt.Input.(*Aggregate)
	if !ok {
		t.Fatalf("below having %T, want Aggregate", flt.Input)
	}
	if len(agg.Aggs) != 2 {
		t.Errorf("aggs = %d, want 2 (count deduplicated with having)", len(agg.Aggs))
	}
	if agg.GroupNames[0] != "region" {
		t.Errorf("group names = %v", agg.GroupNames)
	}
}

func TestPlanErrors(t *testing.T) {
	cat := defaultCatalog()
	for _, q := range []string{
		"SELECT id FROM ghost",
		"SELECT id FROM customers WHERE id IN (SELECT id FROM orders)",
		"SELECT *, count(*) FROM customers GROUP BY id",
		"SELECT PREDICT(nope, age) FROM customers",
	} {
		stmt, err := sql.ParseOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PlanSelect(stmt.(*sql.SelectStmt), fakeModels{}, cat, LevelFull); err == nil {
			t.Errorf("expected planning error for %q", q)
		}
	}
}

func TestSplitAndAll(t *testing.T) {
	stmt, _ := sql.ParseOne("SELECT 1 FROM customers WHERE a = 1 AND b = 2 AND c = 3")
	where := stmt.(*sql.SelectStmt).Where
	parts := SplitConjuncts(where)
	if len(parts) != 3 {
		t.Fatalf("conjuncts = %d", len(parts))
	}
	back := AndAll(parts)
	if sql.FormatExpr(back) != sql.FormatExpr(where) {
		t.Errorf("AndAll(SplitConjuncts(x)) != x: %s", sql.FormatExpr(back))
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
}

func TestRewriteExprDoesNotMutate(t *testing.T) {
	stmt, _ := sql.ParseOne("SELECT a + b * 2 FROM customers")
	orig := stmt.(*sql.SelectStmt).Items[0].Expr
	before := sql.FormatExpr(orig)
	out := RewriteExpr(orig, func(e sql.Expr) sql.Expr {
		if cr, ok := e.(*sql.ColRef); ok && cr.Name == "a" {
			return &sql.ColRef{Name: "z"}
		}
		return nil
	})
	if sql.FormatExpr(orig) != before {
		t.Error("RewriteExpr mutated its input")
	}
	if sql.FormatExpr(out) == before {
		t.Error("RewriteExpr did not apply the transform")
	}
}

func TestJoinConditionScanAssignment(t *testing.T) {
	pl := plan(t, `SELECT c.id FROM customers c JOIN orders o ON c.id = o.cust_id
		WHERE c.age > 30 AND o.amount > 100`, nil, defaultCatalog(), LevelFull)
	// Both single-table conjuncts should be pushed into their scans.
	var scanFilters int
	var walk func(n Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			scanFilters += len(x.Filters)
		case *Project:
			walk(x.Input)
		case *Filter:
			walk(x.Input)
		case *Join:
			walk(x.Left)
			walk(x.Right)
		}
	}
	walk(pl.Root)
	if scanFilters != 2 {
		t.Errorf("scan filters = %d, want 2", scanFilters)
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		LevelUDF: "udf", LevelVectorized: "vectorized",
		LevelParallel: "parallel", LevelFull: "full",
	} {
		if l.String() != want {
			t.Errorf("Level(%d).String() = %q", int(l), l.String())
		}
	}
}

func TestFormatPlan(t *testing.T) {
	g := testGraph(t)
	pl := plan(t, `SELECT region, count(*) AS n FROM customers
		WHERE age > 30 AND PREDICT(m, age, region) >= 0.8
		GROUP BY region ORDER BY n DESC LIMIT 3`,
		fakeModels{"m": g}, defaultCatalog(), LevelFull)
	out := FormatPlan(pl.Root)
	for _, want := range []string{"Limit(3)", "Sort(", "Aggregate(", "Predict(model=m", "fused-compare", "Scan(customers"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
	// The pushed-down filter lives on the scan, below the predict.
	if !strings.Contains(out, "filter=") {
		t.Errorf("pushed filter missing:\n%s", out)
	}
}
