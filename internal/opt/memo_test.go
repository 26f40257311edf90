package opt

import (
	"sync"
	"testing"

	"repro/internal/onnx"
	"repro/internal/sql"
)

func statsCatalog() *fakeCatalog {
	cat := defaultCatalog()
	cat.stats = map[string]onnx.Stats{
		"customers": {
			"age":    {HasRange: true, Min: 20, Max: 70},
			"region": {Categories: map[string]bool{"us": true}},
		},
	}
	return cat
}

func predictNode(t *testing.T, n Node) *Predict {
	t.Helper()
	for n != nil {
		switch x := n.(type) {
		case *Predict:
			return x
		case *Project:
			n = x.Input
		case *Filter:
			n = x.Input
		case *Limit:
			n = x.Input
		case *Sort:
			n = x.Input
		default:
			n = nil
		}
	}
	t.Fatal("no Predict node in plan")
	return nil
}

// TestCompiledModelMemo: repeated plans over unchanged statistics share
// one compiled graph with an identical report; a stats-version bump or a
// redeploy yields a newly compressed graph; the registry graph is never
// handed out for rewriting.
func TestCompiledModelMemo(t *testing.T) {
	g := testGraph(t)
	fpBefore := g.Clone().Fingerprint()
	models := fakeModels{"m": g}
	cat := statsCatalog()
	const q = "SELECT id, PREDICT(m, age, region) AS s FROM customers WHERE id = 7"

	p1 := plan(t, q, models, cat, LevelFull)
	p2 := plan(t, q, models, cat, LevelFull)
	n1, n2 := predictNode(t, p1.Root), predictNode(t, p2.Root)
	if n1.Graph == g {
		t.Fatal("plan shares the registry graph after compression")
	}
	if n1.Graph != n2.Graph {
		t.Fatal("same graph and stats version: plans must share the memoized compile")
	}
	if p1.Report.String() != p2.Report.String() || len(n1.Args) != len(n2.Args) {
		t.Fatalf("memo hit changed the plan: %q/%d vs %q/%d", p1.Report.String(), len(n1.Args), p2.Report.String(), len(n2.Args))
	}
	if len(n1.Args) != len(n1.Graph.Inputs) {
		t.Fatalf("args (%d) out of sync with graph inputs (%d)", len(n1.Args), len(n1.Graph.Inputs))
	}

	cat.version++
	n3 := predictNode(t, plan(t, q, models, cat, LevelFull).Root)
	if n3.Graph == n1.Graph {
		t.Fatal("stats-version bump reused the old compile")
	}

	g2 := testGraph(t)
	models["m"] = g2
	n4 := predictNode(t, plan(t, q, models, cat, LevelFull).Root)
	if n4.Graph == n3.Graph {
		t.Fatal("redeploy reused the previous model's compile")
	}

	// Push-up and time-travel plans rewrite privately.
	pu := predictNode(t, plan(t, "SELECT id FROM customers WHERE PREDICT(m, age, region) >= 0.8", models, cat, LevelFull).Root)
	if pu.Graph == n4.Graph || pu.Graph == g2 {
		t.Fatal("push-up plan shares a graph it rewrote")
	}
	tt := predictNode(t, plan(t, "SELECT PREDICT(m, age, region) AS s FROM customers VERSION 1", models, cat, LevelFull).Root)
	if tt.Graph == n4.Graph || tt.Graph == g2 {
		t.Fatal("time-travel plan shares a compiled or registry graph")
	}

	if g.Fingerprint() != fpBefore {
		t.Fatal("planning mutated the registry graph")
	}
}

// TestCompiledModelMemoConcurrent plans one query from several goroutines
// at once (run under -race in CI): racing misses must still converge on a
// single shared compile.
func TestCompiledModelMemoConcurrent(t *testing.T) {
	models := fakeModels{"m": testGraph(t)}
	cat := statsCatalog()
	const workers = 8
	graphs := make([]*onnx.Graph, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stmt, err := sql.ParseOne("SELECT PREDICT(m, age, region) AS s FROM customers")
			if err != nil {
				t.Error(err)
				return
			}
			pl, err := PlanSelect(stmt.(*sql.SelectStmt), models, cat, LevelFull)
			if err != nil {
				t.Error(err)
				return
			}
			graphs[w] = pl.Root.(*Project).Input.(*Predict).Graph
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if graphs[w] != graphs[0] {
			t.Fatalf("plan %d got its own compile; all plans must share one", w)
		}
	}
}
