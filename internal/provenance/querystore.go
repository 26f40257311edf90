package provenance

import (
	"cmp"
	"slices"
	"strconv"
)

// Compact query entities.
//
// Read-only statements are the bulk of captured provenance: every SELECT
// adds a query entity and about ten edges, nearly all of them to the same
// user, table, column and model entities as the statement before it. Kept
// as ordinary entities they cost about 0.8 KB each, so the catalog's size
// tracks query traffic. The catalog therefore stores such a query as a
// queryRec holding only what differs between statements (its number, text,
// kind and sequence) and a shared queryShape listing its out-edges; the
// Entity, its ID string and its Edge values are built when read.
//
// A compact query is promoted to an ordinary entity (with ordinary edges
// carrying their original sequence numbers) the first time the generic API
// writes to it: Ensure, NewVersion or SetAttr on it, or an AddEdge from or
// to it. A given (query, name) is therefore either a live compact query or
// an ordinary entity, never both, and every read sees one graph.

// queryRec is one compact query entity, named "q<num>", version 1.
type queryRec struct {
	num   int64 // the query's name is "q" + num
	seq   int64 // entity sequence; its edge i has sequence seq + off
	text  string
	kind  string
	shape int32 // index into Catalog.shapes, or -1 once promoted
}

// queryShape is an out-edge list shared by compact queries.
type queryShape struct {
	edges   []shapeEdge
	members []int32 // queryRec indexes, ascending; promoted ones are skipped
}

// shapeEdge is one out-edge of a compact query.
type shapeEdge struct {
	to    int32 // target node
	label uint8
	off   uint32 // edge sequence minus the query's sequence
}

// queryNum parses a canonical query name "q<n>" (n >= 1, no leading zero).
func queryNum(name string) (int64, bool) {
	if len(name) < 2 || len(name) > 19 || name[0] != 'q' || name[1] == '0' {
		return 0, false
	}
	var n int64
	for i := 1; i < len(name); i++ {
		d := name[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int64(d)
	}
	return n, true
}

// recordByName returns the index of the live compact query named name.
func (c *Catalog) recordByName(name string) (int, bool) {
	if c.liveRecs == 0 {
		return 0, false
	}
	n, ok := queryNum(name)
	if !ok {
		return 0, false
	}
	i, found := slices.BinarySearchFunc(c.recs, n, func(r queryRec, n int64) int { return cmp.Compare(r.num, n) })
	if !found || c.recs[i].shape < 0 {
		return 0, false
	}
	return i, true
}

// recordByID returns the index of the live compact query with entity ID id.
func (c *Catalog) recordByID(id string) (int, bool) {
	const prefix, suffix = string(TypeQuery) + ":", "@v1"
	if c.liveRecs == 0 || len(id) < len(prefix)+len(suffix) ||
		id[:len(prefix)] != prefix || id[len(id)-len(suffix):] != suffix {
		return 0, false
	}
	return c.recordByName(id[len(prefix) : len(id)-len(suffix)])
}

func (r *queryRec) name() string { return "q" + strconv.FormatInt(r.num, 10) }

func (r *queryRec) id() string { return entityID(TypeQuery, r.name(), 1) }

// entity builds the Entity a compact query stands for.
func (r *queryRec) entity() *Entity {
	name := r.name()
	return &Entity{
		ID: entityID(TypeQuery, name, 1), Type: TypeQuery, Name: name, Version: 1,
		Attrs: Attrs{{"text", r.text}, {"kind", r.kind}}, Seq: r.seq,
	}
}

// liveRecords calls fn for every live compact query.
func (c *Catalog) liveRecords(fn func(r *queryRec)) {
	for i := range c.recs {
		if c.recs[i].shape >= 0 {
			fn(&c.recs[i])
		}
	}
}

// recordEdges appends the out-edges of compact query r.
func (c *Catalog) recordEdges(out []Edge, r *queryRec) []Edge {
	from := r.id()
	for _, se := range c.shapes[r.shape].edges {
		out = append(out, Edge{From: from, To: c.nodeIDs[se.to], Label: c.labels[se.label], Seq: r.seq + int64(se.off)})
	}
	return out
}

// promoteLocked turns compact query ri into an ordinary entity with
// ordinary edges, keeping its sequence numbers.
func (c *Catalog) promoteLocked(ri int) {
	r := &c.recs[ri]
	edges := c.shapes[r.shape].edges
	e := r.entity()
	c.entities[e.ID] = e
	c.latest[baseKey(TypeQuery, e.Name)] = 1
	n := c.node(e.ID)
	for _, se := range edges {
		idx := int32(len(c.edges))
		c.edges = append(c.edges, edge{from: n, to: se.to, label: se.label, seq: r.seq + int64(se.off)})
		c.out[n] = append(c.out[n], idx)
		c.in[se.to] = append(c.in[se.to], idx)
	}
	c.liveRecs--
	c.recEdges -= len(edges)
	r.shape = -1
}

// promoteNameLocked promotes the live compact query (t, name), if any.
func (c *Catalog) promoteNameLocked(t EntityType, name string) {
	if t != TypeQuery {
		return
	}
	if ri, ok := c.recordByName(name); ok {
		c.promoteLocked(ri)
	}
}

// promoteIDLocked promotes the live compact query with entity ID id, if any.
func (c *Catalog) promoteIDLocked(id string) {
	if ri, ok := c.recordByID(id); ok {
		c.promoteLocked(ri)
	}
}

// queryCapture builds one captured statement's query entity and its
// out-edges while the tracker holds the catalog lock: compactly when the
// statement writes nothing, as an ordinary entity otherwise.
type queryCapture struct {
	c     *Catalog
	e     *Entity // the ordinary entity; nil for a compact query
	rec   queryRec
	edges []shapeEdge
}

// beginQueryLocked starts capturing query number num.
func (c *Catalog) beginQueryLocked(num int64, text, kind string, readOnly bool) *queryCapture {
	if readOnly && c.canRecordLocked(num) {
		c.seq++
		return &queryCapture{c: c, rec: queryRec{num: num, seq: c.seq, text: text, kind: kind}}
	}
	name := "q" + strconv.FormatInt(num, 10)
	return &queryCapture{c: c, e: c.newVersionLocked(TypeQuery, name, Attrs{{"text", text}, {"kind", kind}})}
}

// canRecordLocked reports whether query number num can be kept compact:
// compact queries are kept in ascending number order, and the name must
// not already be an entity or an edge endpoint.
func (c *Catalog) canRecordLocked(num int64) bool {
	if num < 1 || (len(c.recs) > 0 && num <= c.recs[len(c.recs)-1].num) {
		return false
	}
	var buf [40]byte
	key := strconv.AppendInt(append(buf[:0], string(TypeQuery)+":q"...), num, 10)
	if _, ok := c.latest[string(key)]; ok {
		return false
	}
	_, ok := c.nodeIdx[string(append(key, "@v1"...))]
	return !ok
}

// link adds the edge query -label-> to, deduplicated.
func (q *queryCapture) link(to, label string) {
	c := q.c
	if q.e != nil {
		c.addEdgeLocked(q.e.ID, to, label)
		return
	}
	c.promoteIDLocked(to)
	t, l := c.node(to), c.labelCode(label)
	for _, se := range q.edges {
		if se.to == t && se.label == l {
			return
		}
	}
	c.seq++
	q.edges = append(q.edges, shapeEdge{to: t, label: l, off: uint32(c.seq - q.rec.seq)})
}

// finish stores the query and returns its entity.
func (q *queryCapture) finish() *Entity {
	if q.e != nil {
		return q.e
	}
	c := q.c
	var buf [128]byte
	key := buf[:0]
	for _, se := range q.edges {
		key = append(key, byte(se.to), byte(se.to>>8), byte(se.to>>16), byte(se.to>>24), se.label,
			byte(se.off), byte(se.off>>8), byte(se.off>>16), byte(se.off>>24))
	}
	s, ok := c.shapeIdx[string(key)]
	if !ok {
		s = int32(len(c.shapes))
		c.shapes = append(c.shapes, queryShape{edges: slices.Clone(q.edges)})
		c.shapeIdx[string(key)] = s
		for i, se := range q.edges {
			if !slices.ContainsFunc(q.edges[:i], func(p shapeEdge) bool { return p.to == se.to }) {
				c.shapesTo[se.to] = append(c.shapesTo[se.to], s)
			}
		}
	}
	q.rec.shape = s
	ri := int32(len(c.recs))
	c.recs = append(c.recs, q.rec)
	c.shapes[s].members = append(c.shapes[s].members, ri)
	c.liveRecs++
	c.recEdges += len(q.edges)
	return q.rec.entity()
}
