package main

import (
	"fmt"
	"math/rand/v2"
)

// Statement texts. The PREDICT argument list is the deployed churn
// pipeline's input order.
const (
	pointSQL  = "SELECT id, PREDICT(churn, age, income, tenure, region, notes) AS score FROM customers WHERE id = %d"
	batchSQL  = "SELECT region, count(*) AS n, avg(PREDICT(churn, age, income, tenure, region, notes)) AS s FROM customers WHERE income > 60000 GROUP BY region"
	insertSQL = "INSERT INTO feedback VALUES (%d, %d, %d)"
	countSQL  = "SELECT count(*) AS n FROM feedback"

	// batchIncomeFloor is batchSQL's filter constant, used by the
	// reference aggregates.
	batchIncomeFloor = 60000.0
	// zipfS is the point-key skew: a few hot customers, a long tail.
	zipfS = 1.1
)

type stmtKind int

const (
	kindPoint  stmtKind = iota // one-row scored lookup
	kindBatch                  // grouped scoring aggregate
	kindInsert                 // durable single-row write
)

// stmt is one generated statement plus what its output check needs.
type stmt struct {
	kind stmtKind
	sql  string
	id   int64 // the requested (kindPoint) or written (kindInsert) customer id
}

// workloadSpec is one traffic mix: closed-loop clients, each drawing its
// statements from its own generator.
type workloadSpec struct {
	name    string
	clients int
	mix     func(g *generator) stmt
}

var workloads = []workloadSpec{
	{name: "point-predict", clients: 2, mix: (*generator).point},
	{name: "batch-scoring", clients: 1, mix: func(*generator) stmt { return stmt{kind: kindBatch, sql: batchSQL} }},
	{name: "durable-mix", clients: 2, mix: (*generator).durableMix},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// keySpace maps Zipf ranks to customer ids through a seeded permutation,
// so which customers are hot depends on the seed while the skew does not.
type keySpace struct {
	ids []int64 // rank -> id
}

func newKeySpace(rows int, seed uint64) *keySpace {
	r := rand.New(rand.NewPCG(seed, 0x6b657973))
	ids := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return &keySpace{ids: ids}
}

// generator is one client's deterministic statement stream.
type generator struct {
	client int
	keys   *keySpace
	rng    *rand.Rand
	zipf   *rand.Zipf
	n      int64              // statements drawn so far
	seen   map[int64]struct{} // distinct ids drawn
}

func newGenerator(keys *keySpace, seed uint64, client int) *generator {
	r := rand.New(rand.NewPCG(seed, uint64(client)+1))
	return &generator{
		client: client,
		keys:   keys,
		rng:    r,
		zipf:   rand.NewZipf(r, zipfS, 1, uint64(len(keys.ids)-1)),
		seen:   map[int64]struct{}{},
	}
}

func (g *generator) next(w workloadSpec) stmt {
	s := w.mix(g)
	g.n++
	return s
}

func (g *generator) key() int64 {
	id := g.keys.ids[g.zipf.Uint64()]
	g.seen[id] = struct{}{}
	return id
}

// distinctKeys counts the ids all generators have drawn.
func distinctKeys(gens []*generator) int {
	all := map[int64]struct{}{}
	for _, g := range gens {
		for id := range g.seen {
			all[id] = struct{}{}
		}
	}
	return len(all)
}

func (g *generator) point() stmt {
	id := g.key()
	return stmt{kind: kindPoint, sql: fmt.Sprintf(pointSQL, id), id: id}
}

// durableMix alternates a durable feedback INSERT with a point read. The
// seq column is unique per (client, statement).
func (g *generator) durableMix() stmt {
	if g.n%2 == 1 {
		return g.point()
	}
	id := g.key()
	seq := int64(g.client)<<32 | g.n
	return stmt{kind: kindInsert, sql: fmt.Sprintf(insertSQL, id, g.rng.IntN(2), seq), id: id}
}
