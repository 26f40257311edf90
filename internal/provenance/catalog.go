// Package provenance implements the catalog and capture modules of §4.2: a
// polymorphic, temporal provenance graph (tables, columns, queries, models,
// scripts, hyperparameters, metrics — all versioned), an Atlas-style
// in-process catalog that bridges the SQL and Python capture modules, eager
// and lazy SQL provenance capture, and compression/summarization of the
// captured graph.
package provenance

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// EntityType classifies catalog entities (the "polymorphic" dimension of
// challenge C1).
type EntityType string

// Entity types.
const (
	TypeTable      EntityType = "table"
	TypeColumn     EntityType = "column"
	TypeQuery      EntityType = "query"
	TypeTemplate   EntityType = "template"
	TypeModel      EntityType = "model"
	TypeScript     EntityType = "script"
	TypeDataset    EntityType = "dataset"
	TypeHyperparam EntityType = "hyperparam"
	TypeMetric     EntityType = "metric"
	TypeUser       EntityType = "user"
)

// Edge labels.
const (
	EdgeReads     = "READS"
	EdgeWrites    = "WRITES"
	EdgeScores    = "SCORES"
	EdgeHasColumn = "HAS_COLUMN"
	EdgeTrainedOn = "TRAINED_ON"
	EdgeProduces  = "PRODUCES"
	EdgeHasParam  = "HAS_PARAM"
	EdgeHasMetric = "HAS_METRIC"
	EdgeIssuedBy  = "ISSUED_BY"
	EdgePrevious  = "PREVIOUS_VERSION"
)

// Entity is one node of the provenance graph. Entities are versioned: a
// write to a table yields a new version entity chained to its predecessor
// (the "temporal" dimension of challenge C1).
type Entity struct {
	ID      string // "<type>:<name>@v<version>"
	Type    EntityType
	Name    string
	Version int
	Attrs   Attrs
	Seq     int64 // creation sequence (logical time)
}

// Attr is one entity attribute.
type Attr struct{ Key, Value string }

// Attrs is an entity's attribute list. Entities carry a handful of
// attributes and every statement adds one (its query entity), so the list
// is a slice of pairs: a Go map costs over 300 bytes at any size.
type Attrs []Attr

// Get returns the value of key, or "" when it is not set.
func (a Attrs) Get(key string) string {
	for _, kv := range a {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// set sets key to value, replacing an existing value.
func (a *Attrs) set(key, value string) {
	for i := range *a {
		if (*a)[i].Key == key {
			(*a)[i].Value = value
			return
		}
	}
	*a = append(*a, Attr{key, value})
}

// Edge is a directed, labeled edge between entities.
type Edge struct {
	From  string
	To    string
	Label string
	Seq   int64
}

// Catalog is the thread-safe provenance store shared by all capture
// modules; it plays the role Apache Atlas plays in the paper's prototype.
//
// Every statement adds about ten edges, so the catalog grows with query
// traffic and its per-edge cost matters. Edges are therefore stored
// interned: each entity ID an edge touches gets an int32 node index (the
// ID string is kept once), each label a uint8 code, and the adjacency
// lists hold int32 edge indices. Queries that write nothing are kept
// more compactly still (see querystore.go).
type Catalog struct {
	mu       sync.RWMutex
	entities map[string]*Entity
	latest   map[string]int // "<type>:<name>" -> latest version
	nodeIdx  map[string]int32
	nodeIDs  []string  // node index -> entity ID
	labels   []string  // label code -> label
	edges    []edge    // in insertion order
	out, in  [][]int32 // node index -> edge indices
	seq      int64

	// Compact queries: recs in ascending query number, the shapes they
	// share, and for each node the shapes with an edge into it.
	recs     []queryRec
	shapes   []queryShape
	shapeIdx map[string]int32 // encoded edge list -> shape
	shapesTo [][]int32        // node index -> shape indices
	liveRecs int              // recs not promoted
	recEdges int              // edges of live recs
}

// edge is the interned form of an Edge.
type edge struct {
	from, to int32
	label    uint8
	seq      int64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		entities: map[string]*Entity{},
		latest:   map[string]int{},
		nodeIdx:  map[string]int32{},
		shapeIdx: map[string]int32{},
	}
}

// node interns an entity ID, returning its node index.
func (c *Catalog) node(id string) int32 {
	if n, ok := c.nodeIdx[id]; ok {
		return n
	}
	n := int32(len(c.nodeIDs))
	c.nodeIdx[id] = n
	c.nodeIDs = append(c.nodeIDs, id)
	c.out = append(c.out, nil)
	c.in = append(c.in, nil)
	c.shapesTo = append(c.shapesTo, nil)
	return n
}

// labelCode interns an edge label. Labels are a small fixed vocabulary
// (the Edge* constants), so a linear scan beats a map.
func (c *Catalog) labelCode(label string) uint8 {
	for i, l := range c.labels {
		if l == label {
			return uint8(i)
		}
	}
	if len(c.labels) > 255 {
		panic("provenance: more than 256 distinct edge labels")
	}
	c.labels = append(c.labels, label)
	return uint8(len(c.labels) - 1)
}

// edgeAt expands an interned edge.
func (c *Catalog) edgeAt(i int32) Edge {
	e := &c.edges[i]
	return Edge{From: c.nodeIDs[e.from], To: c.nodeIDs[e.to], Label: c.labels[e.label], Seq: e.seq}
}

func entityID(t EntityType, name string, version int) string {
	return string(t) + ":" + name + "@v" + strconv.Itoa(version)
}

func baseKey(t EntityType, name string) string { return string(t) + ":" + name }

// Ensure returns the latest version of the (type, name) entity, creating
// version 1 if absent.
func (c *Catalog) Ensure(t EntityType, name string) *Entity {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ensureLocked(t, name)
}

func (c *Catalog) ensureLocked(t EntityType, name string) *Entity {
	c.promoteNameLocked(t, name)
	key := baseKey(t, name)
	if v, ok := c.latest[key]; ok {
		return c.entities[entityID(t, name, v)]
	}
	return c.newVersionLocked(t, name, nil)
}

// NewVersion creates a new version of the (type, name) entity, chaining it
// to the previous version with a PREVIOUS_VERSION edge.
func (c *Catalog) NewVersion(t EntityType, name string, attrs Attrs) *Entity {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.newVersionLocked(t, name, attrs)
}

func (c *Catalog) newVersionLocked(t EntityType, name string, attrs Attrs) *Entity {
	c.promoteNameLocked(t, name)
	key := baseKey(t, name)
	version := c.latest[key] + 1
	c.seq++
	e := &Entity{
		ID: entityID(t, name, version), Type: t, Name: name,
		Version: version, Attrs: attrs, Seq: c.seq,
	}
	c.entities[e.ID] = e
	if version > 1 {
		c.addEdgeLocked(e.ID, entityID(t, name, version-1), EdgePrevious)
	}
	c.latest[key] = version
	return e
}

// Latest returns the newest version of the entity, or nil.
func (c *Catalog) Latest(t EntityType, name string) *Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.latest[baseKey(t, name)]
	if !ok {
		if t == TypeQuery {
			if ri, ok := c.recordByName(name); ok {
				return c.recs[ri].entity()
			}
		}
		return nil
	}
	return c.entities[entityID(t, name, v)]
}

// Versions returns every stored version of the (type, name) entity in
// ascending version order.
func (c *Catalog) Versions(t EntityType, name string) []*Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	latest := c.latest[baseKey(t, name)]
	if t == TypeQuery {
		if ri, ok := c.recordByName(name); ok {
			return []*Entity{c.recs[ri].entity()}
		}
	}
	out := make([]*Entity, 0, latest)
	for v := 1; v <= latest; v++ {
		if e := c.entities[entityID(t, name, v)]; e != nil {
			out = append(out, e)
		}
	}
	return out
}

// Get returns an entity by ID, or nil.
func (c *Catalog) Get(id string) *Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e := c.entities[id]; e != nil {
		return e
	}
	if ri, ok := c.recordByID(id); ok {
		return c.recs[ri].entity()
	}
	return nil
}

// SetAttr sets one attribute on a stored entity under the catalog lock.
// Entity pointers are shared across capture modules, so attribute writes
// must be synchronized here rather than mutating Entity.Attrs directly.
func (c *Catalog) SetAttr(id, key, value string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.promoteIDLocked(id)
	e := c.entities[id]
	if e == nil {
		return
	}
	e.Attrs.set(key, value)
}

// AddEdge inserts a deduplicated, labeled edge.
func (c *Catalog) AddEdge(from, to, label string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addEdgeLocked(from, to, label)
}

func (c *Catalog) addEdgeLocked(from, to, label string) {
	c.promoteIDLocked(from)
	c.promoteIDLocked(to)
	f, t, l := c.node(from), c.node(to), c.labelCode(label)
	// Deduplicate by scanning the shorter adjacency list: a query's own
	// out-list is short even when its target (a user, a table) has
	// thousands of incoming edges.
	scan := c.out[f]
	if len(c.in[t]) < len(scan) {
		scan = c.in[t]
	}
	for _, i := range scan {
		if e := &c.edges[i]; e.from == f && e.to == t && e.label == l {
			return
		}
	}
	c.seq++
	idx := int32(len(c.edges))
	c.edges = append(c.edges, edge{from: f, to: t, label: l, seq: c.seq})
	c.out[f] = append(c.out[f], idx)
	c.in[t] = append(c.in[t], idx)
}

// Size returns the node and edge counts (the paper's provenance-table
// metric is nodes+edges).
func (c *Catalog) Size() (nodes, edges int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entities) + c.liveRecs, len(c.edges) + c.recEdges
}

// EntitiesOfType lists entities of one type, ordered by creation.
func (c *Catalog) EntitiesOfType(t EntityType) []*Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Entity
	for _, e := range c.entities {
		if e.Type == t {
			out = append(out, e)
		}
	}
	if t == TypeQuery {
		c.liveRecords(func(r *queryRec) { out = append(out, r.entity()) })
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Direction selects lineage traversal direction.
type Direction int

// Traversal directions: Upstream follows incoming edges (what produced
// this), Downstream follows outgoing edges (what this produced).
const (
	Upstream Direction = iota
	Downstream
)

// Lineage returns the entities reachable from id within maxDepth hops in
// the given direction, breadth-first, excluding id itself. maxDepth <= 0
// means unbounded.
func (c *Catalog) Lineage(id string, dir Direction, maxDepth int) []*Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// A position is a node index, or -(r+1) for compact query r. Compact
	// queries have no incoming edges, and nodes none from compact queries
	// except through their shapes.
	var start int64
	if n, ok := c.nodeIdx[id]; ok {
		start = int64(n)
	} else if ri, ok := c.recordByID(id); ok {
		start = -int64(ri) - 1
	} else {
		return nil
	}
	type item struct {
		pos   int64
		depth int
	}
	seen := map[int64]bool{start: true}
	var out []*Entity
	queue := []item{{start, 0}}
	visit := func(pos int64, depth int) {
		if seen[pos] {
			return
		}
		seen[pos] = true
		var e *Entity
		if pos < 0 {
			e = c.recs[-pos-1].entity()
		} else {
			e = c.entities[c.nodeIDs[pos]]
		}
		if e != nil {
			out = append(out, e)
			queue = append(queue, item{pos, depth})
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if maxDepth > 0 && cur.depth >= maxDepth {
			continue
		}
		next := cur.depth + 1
		switch {
		case cur.pos < 0:
			if dir == Downstream {
				for _, se := range c.shapes[c.recs[-cur.pos-1].shape].edges {
					visit(int64(se.to), next)
				}
			}
		case dir == Downstream:
			for _, ei := range c.out[cur.pos] {
				visit(int64(c.edges[ei].to), next)
			}
		default:
			for _, ei := range c.in[cur.pos] {
				visit(int64(c.edges[ei].from), next)
			}
			for _, s := range c.shapesTo[cur.pos] {
				for _, ri := range c.shapes[s].members {
					if c.recs[ri].shape == s {
						visit(-int64(ri)-1, next)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// EdgesFrom returns the outgoing edges of an entity, in creation order.
func (c *Catalog) EdgesFrom(id string) []Edge {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodeIdx[id]
	if !ok {
		if ri, ok := c.recordByID(id); ok {
			return c.recordEdges(nil, &c.recs[ri])
		}
		return nil
	}
	var out []Edge
	for _, idx := range c.out[n] {
		out = append(out, c.edgeAt(idx))
	}
	return sortEdges(out)
}

// EdgesTo returns the incoming edges of an entity, in creation order.
func (c *Catalog) EdgesTo(id string) []Edge {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodeIdx[id]
	if !ok {
		return nil
	}
	var out []Edge
	for _, idx := range c.in[n] {
		out = append(out, c.edgeAt(idx))
	}
	for _, s := range c.shapesTo[n] {
		sh := &c.shapes[s]
		for _, se := range sh.edges {
			if se.to != n {
				continue
			}
			for _, ri := range sh.members {
				if r := &c.recs[ri]; r.shape == s {
					out = append(out, Edge{From: r.id(), To: id, Label: c.labels[se.label], Seq: r.seq + int64(se.off)})
				}
			}
		}
	}
	return sortEdges(out)
}

// sortEdges orders edges by creation. Ordinary edges are stored in that
// order, but compact queries' edges and promoted ones interleave with them.
func sortEdges(es []Edge) []Edge {
	sort.Slice(es, func(i, j int) bool { return es[i].Seq < es[j].Seq })
	return es
}

// String summarizes the catalog.
func (c *Catalog) String() string {
	n, e := c.Size()
	return fmt.Sprintf("catalog{nodes=%d edges=%d}", n, e)
}
