// Package infer is the production inference plane: the model-serving layer
// between the engine's PREDICT operator and the scorer backends. It adds
// the three capabilities a per-call scoring path lacks at production
// concurrency — an async micro-batcher that coalesces PREDICT calls from
// concurrent sessions and cursors into single remote-scorer round trips, a
// score cache keyed on feature-vector hash and model generation (guarded,
// like the plan cache, by revalidation rather than eager invalidation), and
// versioned candidate deployments whose mirrored traffic feeds the
// internal/monitor PSI and agreement stats that gate automatic promotion or
// rollback — closing the observe-but-never-act loop.
//
// The plane is strictly an accelerator and a governor: a batcher failure
// (including an armed infer.batch failpoint) degrades that request to
// direct scoring, and a nil plane leaves the engine's original paths
// untouched, so PREDICT never wedges behind it.
package infer

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/onnx"
)

// Registry is the slice of the model registry the plane depends on: the
// monotonic generation that keys cached state and graph resolution by
// "name" or "name@version".
type Registry interface {
	Generation() int64
	GraphFor(ref string) (*onnx.Graph, error)
}

// Config tunes the plane; zero values take the documented defaults.
type Config struct {
	// BatchWindow is the micro-batch latency bound: the longest a queued
	// request waits for peers before the window is scored. Default 2ms.
	// Only Remote backends coalesce; in-process scoring never waits.
	BatchWindow time.Duration
	// BatchRows is the micro-batch size bound, and also the threshold at
	// or above which a request bypasses coalescing entirely (it is already
	// a full window riding the morsel batch granularity). Default 256.
	// Only Remote backends coalesce.
	BatchRows int
	// CacheSize is the score-cache capacity in entries; 0 takes the
	// default 65536, negative disables caching.
	CacheSize int
	// CanaryMinSamples is the mirrored traffic the canary gate requires
	// before acting. Default 500.
	CanaryMinSamples int64
	// CanaryMaxDisagreement is the largest mean |candidate - primary| the
	// gate tolerates when promoting. Default 0.05.
	CanaryMaxDisagreement float64
	// Promote is called when a canary passes its gate (and by manual
	// promotion); typically core wires it to ModelRegistry.Promote with
	// the production stage. The registry-generation bump it causes is what
	// invalidates cached scores of the displaced version.
	Promote func(model string, version int) error
	// Remote optionally builds a remote scorer per graph (e.g. the HTTP
	// scoring-service client flock-serve configures): when set, backend
	// calls go through it — one round trip per micro-batch window —
	// instead of the in-process native session. Without it nothing is
	// coalesced: native calls score directly.
	Remote func(g *onnx.Graph) (onnx.Scorer, error)
}

func (c Config) withDefaults() Config {
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchRows == 0 {
		c.BatchRows = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 65536
	}
	if c.CanaryMinSamples == 0 {
		c.CanaryMinSamples = 500
	}
	if c.CanaryMaxDisagreement == 0 {
		c.CanaryMaxDisagreement = 0.05
	}
	return c
}

// Plane is the inference plane. It is safe for concurrent use; one Plane
// serves every session of a Flock instance.
type Plane struct {
	cfg Config
	reg Registry

	cache *scoreCache // nil when disabled

	mu       sync.RWMutex
	closed   bool
	backends map[uint64]scoreFn  // keyed by graph fingerprint
	batchers map[uint64]*batcher // keyed by graph fingerprint; remote backends only
	deps     map[string]*deployment

	direct      atomic.Int64 // requests scored without coalescing
	coalesced   atomic.Int64 // requests routed through the batcher
	degraded    atomic.Int64 // batcher failures degraded to direct scoring
	cacheFaults atomic.Int64 // infer.cache failpoint trips
	promotions  atomic.Int64
	rollbacks   atomic.Int64
}

// New builds a plane over the registry.
func New(reg Registry, cfg Config) *Plane {
	cfg = cfg.withDefaults()
	p := &Plane{
		cfg:      cfg,
		reg:      reg,
		backends: map[uint64]scoreFn{},
		batchers: map[uint64]*batcher{},
		deps:     map[string]*deployment{},
	}
	if cfg.CacheSize > 0 {
		p.cache = newScoreCache(cfg.CacheSize)
	}
	return p
}

// Close stops the dispatchers. In-flight requests complete; later requests
// degrade to direct scoring.
func (p *Plane) Close() {
	p.mu.Lock()
	p.closed = true
	bas := make([]*batcher, 0, len(p.batchers))
	for _, ba := range p.batchers {
		bas = append(bas, ba)
	}
	p.mu.Unlock()
	for _, ba := range bas {
		ba.close()
	}
}

// Score scores the batch for model through the plane — the engine's
// PredictPlane hook. g is the planned graph (possibly sparsity-pruned, so
// it is scored as given rather than re-resolved), b the columnar inputs,
// and out receives one score per row.
func (p *Plane) Score(ctx context.Context, model string, g *onnx.Graph, b *onnx.Batch, out []float64) error {
	n := b.N
	if n == 0 {
		return nil
	}
	// The generation is captured once per call: in-flight work planned
	// against this generation may serve and fill entries stamped with it,
	// while any later lookup that observes a bump treats them as stale.
	gen := p.reg.Generation()
	// The content fingerprint identifies "this model version" across the
	// graph objects plans hand us (a plan may hold a private clone) — it
	// keys cache entries, backends, and the shared micro-batcher. It is
	// memoized on the graph, so a plan sharing a compiled graph pays for
	// it once.
	fp := g.Fingerprint()

	cacheOK := p.cache != nil
	if cacheOK {
		if err := fault.Inject("infer.cache"); err != nil {
			// An unavailable cache costs recomputation, never correctness.
			p.cacheFaults.Add(1)
			cacheOK = false
		}
	}
	var (
		scratch  *scoreScratch
		missRows []int
	)
	if cacheOK {
		scratch = scratchPool.Get().(*scoreScratch)
		defer scratchPool.Put(scratch)
		keys := scratch.keysFor(n)
		missRows = scratch.miss[:0]
		seed := onnx.KeySeed(model)
		for i := 0; i < n; i++ {
			keys[i] = b.RowKey(seed, i)
			if s, ok := p.cache.lookup(keys[i], gen, fp); ok {
				out[i] = s
			} else {
				missRows = append(missRows, i)
			}
		}
	}

	if !cacheOK || len(missRows) == n {
		if err := p.scoreBackend(ctx, g, fp, b, out[:n]); err != nil {
			return err
		}
	} else if len(missRows) > 0 {
		sub := gatherBatch(b, missRows)
		subOut := make([]float64, len(missRows))
		if err := p.scoreBackend(ctx, g, fp, sub, subOut); err != nil {
			return err
		}
		for k, i := range missRows {
			out[i] = subOut[k]
		}
	}
	if cacheOK {
		for _, i := range missRows {
			p.cache.store(scratch.keys[i], gen, fp, out[i])
		}
	}
	p.mirror(model, b, out[:n])
	return nil
}

// scoreScratch is Score's per-call scratch: the batch's cache keys and the
// indices of rows the cache missed. Pooled, because a PREDICT morsel is
// thousands of rows and every one needs both.
type scoreScratch struct {
	keys []onnx.RowKey
	miss []int
}

var scratchPool = sync.Pool{New: func() any { return new(scoreScratch) }}

// keysFor returns the key slice grown to n rows, growing miss's capacity
// to match so appending a miss per row never reallocates.
func (s *scoreScratch) keysFor(n int) []onnx.RowKey {
	if cap(s.keys) < n {
		s.keys = make([]onnx.RowKey, n)
		s.miss = make([]int, 0, n)
	}
	return s.keys[:n]
}

// scoreFn is one graph's resolved backend: a vectorized native session or
// a remote scorer round trip.
type scoreFn func(b *onnx.Batch, out []float64) error

// scoreBackend routes one (sub-)batch to the backend. In-process sessions
// always score directly: a native call costs microseconds, so waiting in a
// batch window for peers only adds latency. Remote backends coalesce small
// batches through the model's micro-batcher, because there one round trip
// per window is what dominates; full windows score directly, and any
// batcher failure — injected or real — degrades to direct scoring.
func (p *Plane) scoreBackend(ctx context.Context, g *onnx.Graph, fp uint64, b *onnx.Batch, out []float64) error {
	fn, err := p.backendFor(g, fp)
	if err != nil {
		return err
	}
	if p.cfg.Remote == nil || b.N >= p.cfg.BatchRows || p.isClosed() {
		p.direct.Add(1)
		return fn(b, out)
	}
	ba := p.batcherFor(fp, fn)
	if ba != nil {
		err := ba.scoreBatched(ctx, b, out)
		if err == nil {
			p.coalesced.Add(1)
			return nil
		}
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		// Batcher failure (failpoint, stopped dispatcher, backend error
		// inside the merged window): degrade this request to a direct
		// call rather than failing the query.
		p.degraded.Add(1)
	}
	p.direct.Add(1)
	return fn(b, out)
}

func (p *Plane) isClosed() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.closed
}

// backendFor returns the cached backend for a graph's content. Deployed
// graphs are immutable and content-identical clones score identically, so
// fingerprint keying is sound; the map is reset when retrains accumulate
// dead versions.
func (p *Plane) backendFor(g *onnx.Graph, fp uint64) (scoreFn, error) {
	p.mu.RLock()
	fn := p.backends[fp]
	p.mu.RUnlock()
	if fn != nil {
		return fn, nil
	}
	if p.cfg.Remote != nil {
		scorer, err := p.cfg.Remote(g)
		if err != nil {
			return nil, err
		}
		fn = func(b *onnx.Batch, out []float64) error {
			scores, err := scorer.Score(b)
			if err != nil {
				return err
			}
			copy(out, scores)
			return nil
		}
	} else {
		sess, err := onnx.NewSession(g)
		if err != nil {
			return nil, err
		}
		fn = sess.RunInto
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if have := p.backends[fp]; have != nil {
		return have, nil
	}
	if len(p.backends) > 128 {
		p.backends = map[uint64]scoreFn{}
	}
	p.backends[fp] = fn
	return fn, nil
}

// batcherFor returns the micro-batcher for a graph fingerprint, creating
// it on first use (nil once the plane is closed). Keying by content means
// every concurrent session and cursor scoring the same model version
// shares one batcher — which is what makes cross-query coalescing work.
func (p *Plane) batcherFor(fp uint64, fn scoreFn) *batcher {
	p.mu.RLock()
	ba := p.batchers[fp]
	closed := p.closed
	p.mu.RUnlock()
	if ba != nil || closed {
		return ba
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if have := p.batchers[fp]; have != nil {
		return have
	}
	ba = newBatcher(p.cfg.BatchRows, p.cfg.BatchWindow, fn)
	p.batchers[fp] = ba
	return ba
}

// gatherBatch extracts the given rows of b into a dense batch.
func gatherBatch(b *onnx.Batch, rows []int) *onnx.Batch {
	sub := &onnx.Batch{N: len(rows), Cols: make([]onnx.Column, len(b.Cols))}
	for c := range b.Cols {
		if b.Cols[c].Nums != nil {
			nums := make([]float64, len(rows))
			for k, i := range rows {
				nums[k] = b.Cols[c].Nums[i]
			}
			sub.Cols[c].Nums = nums
		} else {
			strs := make([]string, len(rows))
			for k, i := range rows {
				strs[k] = b.Cols[c].Strs[i]
			}
			sub.Cols[c].Strs = strs
		}
	}
	return sub
}

// mirror feeds a scored batch to the model's candidate deployment, if any,
// and applies the gate's decision.
func (p *Plane) mirror(model string, b *onnx.Batch, primary []float64) {
	p.mu.RLock()
	d := p.deps[model]
	p.mu.RUnlock()
	if d == nil {
		return
	}
	switch d.observe(b, primary, p.cfg.CanaryMinSamples, p.cfg.CanaryMaxDisagreement) {
	case +1:
		if p.cfg.Promote != nil {
			if err := p.cfg.Promote(model, d.version); err != nil {
				d.setStage(StageRolledBack, fmt.Sprintf("promotion failed: %v", err))
				p.rollbacks.Add(1)
				return
			}
		}
		p.promotions.Add(1)
	case -1:
		p.rollbacks.Add(1)
	}
}

// Deploy registers version as the candidate for model in the given stage
// (StageShadow or StageCanary), replacing any previous candidate.
func (p *Plane) Deploy(model string, version int, stage Stage) (DeploymentStatus, error) {
	if stage != StageShadow && stage != StageCanary {
		return DeploymentStatus{}, fmt.Errorf("infer: deploy stage must be shadow or canary, got %s", stage)
	}
	g, err := p.reg.GraphFor(fmt.Sprintf("%s@%d", model, version))
	if err != nil {
		return DeploymentStatus{}, err
	}
	sess, err := onnx.NewSession(g)
	if err != nil {
		return DeploymentStatus{}, err
	}
	d := &deployment{model: model, version: version, stage: stage, sess: sess}
	p.mu.Lock()
	p.deps[model] = d
	p.mu.Unlock()
	return d.status(), nil
}

// PromoteCandidate manually promotes the model's candidate, regardless of
// the gate's stats.
func (p *Plane) PromoteCandidate(model string) (DeploymentStatus, error) {
	d, err := p.candidateFor(model)
	if err != nil {
		return DeploymentStatus{}, err
	}
	if st := d.currentStage(); st != StageShadow && st != StageCanary {
		return d.status(), fmt.Errorf("infer: candidate for %s is %s, not promotable", model, st)
	}
	if p.cfg.Promote != nil {
		if err := p.cfg.Promote(model, d.version); err != nil {
			return d.status(), err
		}
	}
	d.setStage(StagePromoted, "manual promotion")
	p.promotions.Add(1)
	return d.status(), nil
}

// RollbackCandidate manually rolls the model's candidate back; mirrored
// scoring stops.
func (p *Plane) RollbackCandidate(model string) (DeploymentStatus, error) {
	d, err := p.candidateFor(model)
	if err != nil {
		return DeploymentStatus{}, err
	}
	d.setStage(StageRolledBack, "manual rollback")
	p.rollbacks.Add(1)
	return d.status(), nil
}

func (p *Plane) candidateFor(model string) (*deployment, error) {
	p.mu.RLock()
	d := p.deps[model]
	p.mu.RUnlock()
	if d == nil {
		return nil, fmt.Errorf("infer: no candidate deployment for model %q", model)
	}
	return d, nil
}

// Deployments returns the status of every candidate, sorted by model.
func (p *Plane) Deployments() []DeploymentStatus {
	p.mu.RLock()
	out := make([]DeploymentStatus, 0, len(p.deps))
	for _, d := range p.deps {
		out = append(out, d.status())
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Gauges exports the plane's metrics in the server's gauge-map convention.
// Canary state encodes the Stage enum: 1 shadow, 2 canary, 3 promoted,
// 4 rolled-back.
func (p *Plane) Gauges() map[string]float64 {
	m := map[string]float64{}
	var calls, rows int64
	p.mu.RLock()
	for _, ba := range p.batchers {
		c, r := ba.stats()
		calls += c
		rows += r
	}
	p.mu.RUnlock()
	m["flock_infer_batch_calls_total"] = float64(calls)
	m["flock_infer_batch_rows_total"] = float64(rows)
	if calls > 0 {
		m["flock_infer_batch_occupancy"] = float64(rows) / float64(calls)
	} else {
		m["flock_infer_batch_occupancy"] = 0
	}
	if p.cache != nil {
		hits, misses, stale := p.cache.stats()
		m["flock_infer_cache_hits_total"] = float64(hits)
		m["flock_infer_cache_misses_total"] = float64(misses)
		m["flock_infer_cache_stale_total"] = float64(stale)
		m["flock_infer_cache_size"] = float64(p.cache.len())
	}
	m["flock_infer_direct_total"] = float64(p.direct.Load())
	m["flock_infer_coalesced_total"] = float64(p.coalesced.Load())
	m["flock_infer_degraded_total"] = float64(p.degraded.Load())
	m["flock_infer_cache_faults_total"] = float64(p.cacheFaults.Load())
	m["flock_infer_promotions_total"] = float64(p.promotions.Load())
	m["flock_infer_rollbacks_total"] = float64(p.rollbacks.Load())
	for _, st := range p.Deployments() {
		label := fmt.Sprintf("{model=%q}", st.Model)
		var stage Stage
		switch st.Stage {
		case StageShadow.String():
			stage = StageShadow
		case StageCanary.String():
			stage = StageCanary
		case StagePromoted.String():
			stage = StagePromoted
		case StageRolledBack.String():
			stage = StageRolledBack
		}
		m["flock_infer_canary_state"+label] = float64(stage)
		m["flock_infer_canary_psi"+label] = st.PSI
		m["flock_infer_canary_agreement"+label] = st.Agreement
	}
	return m
}
