package infer

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ml"
	"repro/internal/onnx"
)

// linGraph builds a one-input linear graph scoring coeff*x + intercept —
// distinct parameters stand in for distinct model versions.
func linGraph(coeff, intercept float64) *onnx.Graph {
	g := &onnx.Graph{
		Name:   "m",
		Inputs: []onnx.InputSpec{{Name: "x", Kind: ml.KindNumeric}},
		Feats:  []onnx.FeatNode{{Op: onnx.OpScaler, Input: "x", Mean: 0, Scale: 1}},
		Model:  onnx.ModelNode{Op: onnx.OpLinear, Coeff: []float64{coeff}, Intercept: intercept},
		Output: "score",
	}
	g.Relayout()
	return g
}

// fakeRegistry is a test registry: versioned graphs, a bumpable generation,
// and a swappable serving graph.
type fakeRegistry struct {
	mu       sync.Mutex
	gen      int64
	versions map[string]*onnx.Graph // "name@v" -> graph
	serving  map[string]*onnx.Graph // name -> production graph
}

func newFakeRegistry() *fakeRegistry {
	return &fakeRegistry{gen: 1, versions: map[string]*onnx.Graph{}, serving: map[string]*onnx.Graph{}}
}

func (r *fakeRegistry) Generation() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

func (r *fakeRegistry) GraphFor(ref string) (*onnx.Graph, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.versions[ref]; ok {
		return g, nil
	}
	if g, ok := r.serving[ref]; ok {
		return g, nil
	}
	return nil, fmt.Errorf("no model %q", ref)
}

func (r *fakeRegistry) addVersion(name string, v int, g *onnx.Graph) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.versions[fmt.Sprintf("%s@%d", name, v)] = g
}

// redeploy swaps the serving graph and bumps the generation, like a
// registry Promote.
func (r *fakeRegistry) redeploy(name string, g *onnx.Graph) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serving[name] = g
	r.gen++
}

// loopbackRemote is a Config.Remote backend that scores in process. It
// stands in for a scoring service: remote backends are the only ones the
// plane coalesces for.
func loopbackRemote(g *onnx.Graph) (onnx.Scorer, error) { return onnx.NewLocalScorer(g) }

func oneRow(v float64) *onnx.Batch {
	return &onnx.Batch{N: 1, Cols: []onnx.Column{{Nums: []float64{v}}}}
}

func batchOf(vals ...float64) *onnx.Batch {
	return &onnx.Batch{N: len(vals), Cols: []onnx.Column{{Nums: vals}}}
}

func TestPlaneScoreMatchesDirect(t *testing.T) {
	reg := newFakeRegistry()
	g := linGraph(2, 1)
	reg.redeploy("m", g)
	p := New(reg, Config{BatchWindow: time.Millisecond})
	defer p.Close()

	b := batchOf(1, 2, 3, 4)
	out := make([]float64, b.N)
	if err := p.Score(context.Background(), "m", g, b, out); err != nil {
		t.Fatal(err)
	}
	for i, x := range []float64{1, 2, 3, 4} {
		if want := 2*x + 1; out[i] != want {
			t.Fatalf("row %d: got %v want %v", i, out[i], want)
		}
	}
	// Same batch again: every row must come from the cache.
	hits0, _, _ := p.cache.stats()
	out2 := make([]float64, b.N)
	if err := p.Score(context.Background(), "m", g, b, out2); err != nil {
		t.Fatal(err)
	}
	hits1, _, _ := p.cache.stats()
	if hits1-hits0 != int64(b.N) {
		t.Fatalf("expected %d cache hits, got %d", b.N, hits1-hits0)
	}
	for i := range out {
		if out2[i] != out[i] {
			t.Fatalf("cached score diverged at row %d", i)
		}
	}
}

// TestPlaneCoalesces drives concurrent single-row requests (the UDF-path
// shape) at a remote backend and asserts the batcher merges them: far
// fewer backend calls than requests, i.e. occupancy above 1.
func TestPlaneCoalesces(t *testing.T) {
	reg := newFakeRegistry()
	g := linGraph(1, 0)
	reg.redeploy("m", g)
	p := New(reg, Config{BatchWindow: 5 * time.Millisecond, CacheSize: -1, Remote: loopbackRemote})
	defer p.Close()

	const workers, perWorker = 16, 20
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				out := make([]float64, 1)
				v := float64(w*perWorker + i)
				if err := p.Score(context.Background(), "m", g, oneRow(v), out); err != nil || out[0] != v {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d scoring calls failed or returned wrong values", failed.Load())
	}
	gauges := p.Gauges()
	if occ := gauges["flock_infer_batch_occupancy"]; occ <= 1 {
		t.Fatalf("batch occupancy %v: no coalescing happened", occ)
	}
	if gauges["flock_infer_coalesced_total"] != workers*perWorker {
		t.Fatalf("coalesced %v, want %d", gauges["flock_infer_coalesced_total"], workers*perWorker)
	}
}

// TestPlaneLargeBatchBypassesBatcher: a full window (>= BatchRows) must not
// queue behind the coalescer.
func TestPlaneLargeBatchBypassesBatcher(t *testing.T) {
	reg := newFakeRegistry()
	g := linGraph(1, 0)
	reg.redeploy("m", g)
	p := New(reg, Config{BatchRows: 4, CacheSize: -1})
	defer p.Close()

	b := batchOf(1, 2, 3, 4, 5)
	out := make([]float64, b.N)
	if err := p.Score(context.Background(), "m", g, b, out); err != nil {
		t.Fatal(err)
	}
	gauges := p.Gauges()
	if gauges["flock_infer_direct_total"] != 1 || gauges["flock_infer_coalesced_total"] != 0 {
		t.Fatalf("direct=%v coalesced=%v, want 1/0",
			gauges["flock_infer_direct_total"], gauges["flock_infer_coalesced_total"])
	}
}

// TestPlaneNativeScoresDirect: without a remote backend, small requests
// never wait in a batch window — every call scores directly, even with the
// infer.batch failpoint armed (the batcher is not on the path at all).
func TestPlaneNativeScoresDirect(t *testing.T) {
	defer fault.Reset()
	fault.Enable("infer.batch", fault.Spec{})

	reg := newFakeRegistry()
	g := linGraph(2, 0)
	reg.redeploy("m", g)
	p := New(reg, Config{BatchWindow: time.Hour, CacheSize: -1})
	defer p.Close()

	for i := 0; i < 10; i++ {
		out := make([]float64, 1)
		if err := p.Score(context.Background(), "m", g, oneRow(float64(i)), out); err != nil {
			t.Fatal(err)
		}
		if out[0] != 2*float64(i) {
			t.Fatalf("score %d: got %v", i, out[0])
		}
	}
	gauges := p.Gauges()
	if gauges["flock_infer_direct_total"] != 10 || gauges["flock_infer_coalesced_total"] != 0 ||
		gauges["flock_infer_degraded_total"] != 0 || gauges["flock_infer_batch_calls_total"] != 0 {
		t.Fatalf("native scoring touched the batcher: %v", gauges)
	}
}

// TestPlaneBatcherFaultDegradesToDirect arms infer.batch and proves the
// query-never-fails contract for a remote backend: every Score succeeds
// with correct results, scored via the direct fallback.
func TestPlaneBatcherFaultDegradesToDirect(t *testing.T) {
	defer fault.Reset()
	fault.Enable("infer.batch", fault.Spec{})

	reg := newFakeRegistry()
	g := linGraph(3, 0)
	reg.redeploy("m", g)
	p := New(reg, Config{CacheSize: -1, Remote: loopbackRemote})
	defer p.Close()

	for i := 0; i < 10; i++ {
		out := make([]float64, 1)
		if err := p.Score(context.Background(), "m", g, oneRow(float64(i)), out); err != nil {
			t.Fatalf("score %d failed under infer.batch fault: %v", i, err)
		}
		if out[0] != 3*float64(i) {
			t.Fatalf("score %d wrong under degradation: %v", i, out[0])
		}
	}
	if got := p.Gauges()["flock_infer_degraded_total"]; got != 10 {
		t.Fatalf("degraded_total %v, want 10", got)
	}
}

// TestPlaneCacheFaultRecomputes arms infer.cache: scoring must still
// succeed (bypassing the cache), never error.
func TestPlaneCacheFaultRecomputes(t *testing.T) {
	defer fault.Reset()
	fault.Enable("infer.cache", fault.Spec{})

	reg := newFakeRegistry()
	g := linGraph(1, 1)
	reg.redeploy("m", g)
	p := New(reg, Config{BatchWindow: time.Millisecond})
	defer p.Close()

	for i := 0; i < 5; i++ {
		out := make([]float64, 1)
		if err := p.Score(context.Background(), "m", g, oneRow(2), out); err != nil {
			t.Fatal(err)
		}
		if out[0] != 3 {
			t.Fatalf("got %v want 3", out[0])
		}
	}
	gauges := p.Gauges()
	if gauges["flock_infer_cache_faults_total"] != 5 {
		t.Fatalf("cache_faults %v, want 5", gauges["flock_infer_cache_faults_total"])
	}
	if gauges["flock_infer_cache_hits_total"] != 0 {
		t.Fatalf("cache served %v hits while faulted", gauges["flock_infer_cache_hits_total"])
	}
}

// TestGenerationBumpInvalidates is the cache-generation safety contract: a
// redeploy that changes the model must never serve the old version's
// cached score to queries planned after the bump.
func TestGenerationBumpInvalidates(t *testing.T) {
	reg := newFakeRegistry()
	v1 := linGraph(1, 0) // score = x
	v2 := linGraph(1, 5) // score = x + 5
	reg.redeploy("m", v1)
	p := New(reg, Config{BatchWindow: time.Millisecond})
	defer p.Close()

	out := make([]float64, 1)
	if err := p.Score(context.Background(), "m", v1, oneRow(7), out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 7 {
		t.Fatalf("v1 score %v, want 7", out[0])
	}
	reg.redeploy("m", v2) // retrain: generation bump
	if err := p.Score(context.Background(), "m", v2, oneRow(7), out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 12 {
		t.Fatalf("served stale score %v after redeploy, want 12", out[0])
	}
	if _, _, stale := p.cache.stats(); stale == 0 {
		t.Fatal("stale entry was not detected and evicted")
	}
}

// TestConcurrentRedeployNeverServesStale hammers Score from many
// goroutines while another goroutine redeploys new model versions, under
// -race in CI. Every returned score must be explainable by a generation
// that was current at some point during the call — never a version two
// bumps back.
func TestConcurrentRedeployNeverServesStale(t *testing.T) {
	reg := newFakeRegistry()
	// Version k scores x + 1000*k: any stale-cache bleed is unmistakable.
	mkGraph := func(k int) *onnx.Graph { return linGraph(1, float64(1000*k)) }
	reg.redeploy("m", mkGraph(0))
	p := New(reg, Config{BatchWindow: 500 * time.Microsecond})
	defer p.Close()

	stop := make(chan struct{})
	// deployed is the highest k whose redeploy has completed, deploying the
	// highest whose redeploy has begun: a call may see version k from the
	// moment redeploy(k) publishes it, before deployed catches up.
	var deployed, deploying atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= 20; k++ {
			time.Sleep(2 * time.Millisecond)
			deploying.Store(int64(k))
			reg.redeploy("m", mkGraph(k))
			deployed.Store(int64(k))
		}
		close(stop)
	}()

	var wrong atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The version that was current before the call started:
				// anything older returned after this point is stale.
				floor := deployed.Load()
				g, err := reg.GraphFor("m")
				if err != nil {
					wrong.Add(1)
					return
				}
				x := float64(i % 16)
				out := make([]float64, 1)
				if err := p.Score(context.Background(), "m", g, oneRow(x), out); err != nil {
					wrong.Add(1)
					return
				}
				k := int64((out[0] - x) / 1000)
				if ceil := deploying.Load(); k < floor || k > ceil {
					t.Errorf("worker %d: score %v implies version %d, current window [%d,%d]",
						w, out[0], k, floor, ceil)
					wrong.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if wrong.Load() > 0 {
		t.Fatalf("%d stale or failed scores", wrong.Load())
	}
}
