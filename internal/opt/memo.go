package opt

import (
	"sync"

	"repro/internal/onnx"
)

// compiledModel is one stats-compressed graph with its compression report.
// The graph is immutable once memoized: every plan that hits shares it.
type compiledModel struct {
	graph *onnx.Graph
	res   onnx.CompressResult
}

// memoKey identifies a compile: the registry graph it started from and the
// statistics it was specialized to. The memo holds the graph pointer, so
// its address cannot be recycled for a different graph while the entry
// lives; the statistics are named by a never-reused table id, so a dropped
// table is not kept alive by the memo.
type memoKey struct {
	src   *onnx.Graph
	stats StatsKey
}

// ModelMemo memoizes CompressWithStats across plans, so a repeated query
// neither clones nor recompresses the model (and the inference plane
// fingerprints the shared graph once). Entries go stale by key — a
// redeploy changes the registry graph, a table write changes the stats
// version — and the map is reset when dead keys accumulate, the way the
// plane bounds its backends. A catalog owns one (CatalogInfo.CompiledModels).
type ModelMemo struct {
	mu sync.Mutex
	m  map[memoKey]compiledModel
}

const modelMemoCap = 128

// NewModelMemo returns an empty memo.
func NewModelMemo() *ModelMemo { return &ModelMemo{m: map[memoKey]compiledModel{}} }

// get returns the graph src compiled against stats (named by key),
// compressing a clone on a miss.
func (mm *ModelMemo) get(src *onnx.Graph, key StatsKey, stats onnx.Stats) (*onnx.Graph, onnx.CompressResult) {
	k := memoKey{src: src, stats: key}
	mm.mu.Lock()
	cm, ok := mm.m[k]
	mm.mu.Unlock()
	if ok {
		return cm.graph, cm.res
	}
	g := src.Clone()
	cm = compiledModel{graph: g, res: onnx.CompressWithStats(g, stats)}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if have, ok := mm.m[k]; ok {
		return have.graph, have.res
	}
	if len(mm.m) >= modelMemoCap {
		mm.m = map[memoKey]compiledModel{}
	}
	mm.m[k] = cm
	return cm.graph, cm.res
}
