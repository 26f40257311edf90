package engine

import (
	"math"

	"repro/internal/opt"
	"repro/internal/sql"
)

// Zone maps: a per-morsel min/max summary of every Int and Float column,
// which lets a scan skip the morsels a pushed-down `col op literal`
// conjunct cannot match. A point lookup (`WHERE id = k`) then reads one
// 4 096-row morsel instead of the whole table.
//
// A zone map describes exactly one table version and is consulted only for
// scans of that version (the table hands it out under the same read lock
// as the snapshot). It is built lazily by the first pruning scan after a
// write; when every write since the previous map was an append, only the
// previous last (partial) morsel and the new morsels are summarized again.

// zoneMap summarizes one table version, morsel by morsel. It is immutable
// once published.
type zoneMap struct {
	version int64
	rows    int
	cols    []zoneCol // parallel to the table schema
}

// zoneCol holds one column's per-morsel bounds as float64, the domain in
// which the engine compares every numeric pair (cmpNum). Because the int64
// to float64 conversion is monotone, an Int column's converted min and max
// bound every converted value in the morsel. All slices are nil for
// columns that are neither Int nor Float.
type zoneCol struct {
	min, max []float64
	nan      []bool // Float morsels holding a NaN; never pruned
}

// buildZoneMap summarizes cols (n rows, the table at version). prev, when
// non-nil, is an earlier map whose rows are a prefix of cols — the caller
// guarantees no rewrite happened since it was built — so its full morsels
// are reused and only the rest is scanned.
func buildZoneMap(prev *zoneMap, cols []Column, n int, version int64) *zoneMap {
	morsels := morselCount(n)
	start := 0
	if prev != nil && prev.rows <= n {
		start = prev.rows / morselRows // the old partial morsel is redone
	}
	zm := &zoneMap{version: version, rows: n, cols: make([]zoneCol, len(cols))}
	for i := range cols {
		c := &cols[i]
		if c.Type != TypeInt && c.Type != TypeFloat {
			continue
		}
		zc := zoneCol{min: make([]float64, morsels), max: make([]float64, morsels)}
		if c.Type == TypeFloat {
			zc.nan = make([]bool, morsels)
		}
		if start > 0 {
			p := &prev.cols[i]
			copy(zc.min, p.min[:start])
			copy(zc.max, p.max[:start])
			if zc.nan != nil {
				copy(zc.nan, p.nan[:start])
			}
		}
		for m := start; m < morsels; m++ {
			lo, hi := morselBounds(m, n)
			if c.Type == TypeInt {
				zc.min[m], zc.max[m] = intBounds(c.Ints[lo:hi])
			} else {
				zc.min[m], zc.max[m], zc.nan[m] = floatBounds(c.Floats[lo:hi])
			}
		}
		zm.cols[i] = zc
	}
	return zm
}

func intBounds(vals []int64) (float64, float64) {
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return float64(mn), float64(mx)
}

func floatBounds(vals []float64) (mn, mx float64, nan bool) {
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v != v {
			nan = true
			continue
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx, nan
}

// zoneCond is one pushed-down conjunct a zone map can decide: column col
// compared with a numeric literal, column on the left.
type zoneCond struct {
	col int
	op  string // = < <= > >=
	lit float64
}

// zoneConds extracts the conjuncts of a scan's pushed-down filter that a
// zone map can decide. Only the leading run of `col op literal`
// comparisons is used: the filter is an AND that short-circuits left to
// right, so a conjunct that can raise a row error (`x / 0 > 1`) must still
// run on the rows a later conjunct rejects — pruning stops there. An Int
// column compared with a float literal takes part in the run but never
// prunes.
func zoneConds(filters []sql.Expr, schema Schema) []zoneCond {
	var out []zoneCond
	for _, f := range filters {
		b, ok := f.(*sql.Binary)
		if !ok {
			return out
		}
		op := b.Op
		col, lit := b.L, b.R
		if _, isCol := col.(*sql.ColRef); !isCol {
			col, lit, op = lit, col, opt.MirrorOp(op)
		}
		cr, ok := col.(*sql.ColRef)
		if !ok {
			return out
		}
		v, isFloat, ok := numericLit(lit)
		if !ok {
			return out
		}
		idx, err := schema.Resolve(cr.Table, cr.Name)
		if err != nil {
			return out
		}
		typ := schema[idx].Type
		switch op {
		case "=", "<", "<=", ">", ">=":
		case "<>":
			if typ == TypeInt || typ == TypeFloat {
				continue // cannot prune, cannot fail
			}
			return out
		default:
			return out
		}
		switch {
		case typ == TypeFloat, typ == TypeInt && !isFloat:
			out = append(out, zoneCond{col: idx, op: op, lit: v})
		case typ == TypeInt:
			// An Int column against a float literal: never pruned.
		default:
			return out
		}
	}
	return out
}

// numericLit reads an Int or Float literal, optionally negated, as the
// float64 the comparison kernel will see.
func numericLit(e sql.Expr) (v float64, isFloat, ok bool) {
	neg := false
	if u, isUnary := e.(*sql.Unary); isUnary && u.Op == "-" {
		neg, e = true, u.X
	}
	lit, isLit := e.(*sql.Lit)
	if !isLit {
		return 0, false, false
	}
	switch lit.Kind {
	case sql.LitInt:
		i := lit.I
		if neg {
			i = -i // int64 negation, exactly as the kernel negates
		}
		return float64(i), false, true
	case sql.LitFloat:
		f := lit.F
		if neg {
			f = -f
		}
		return f, true, !math.IsNaN(f)
	}
	return 0, false, false
}

// keptMorsels is the pruning helper both scan paths share: it returns,
// per morsel, whether any row can satisfy every cond, or nil when the
// conds prune nothing.
func keptMorsels(zm *zoneMap, conds []zoneCond) []bool {
	if zm == nil || len(conds) == 0 {
		return nil
	}
	morsels := morselCount(zm.rows)
	var keep []bool
	for m := 0; m < morsels; m++ {
		if morselMayMatch(zm, conds, m) {
			continue
		}
		if keep == nil {
			keep = make([]bool, morsels)
			for i := range keep {
				keep[i] = true
			}
		}
		keep[m] = false
	}
	return keep
}

// morselMayMatch reports whether morsel m can hold a row satisfying every
// cond. A Float morsel with a NaN always may: NaN compares "equal" to
// everything (see cmpNum).
func morselMayMatch(zm *zoneMap, conds []zoneCond, m int) bool {
	for _, c := range conds {
		zc := &zm.cols[c.col]
		if zc.nan != nil && zc.nan[m] {
			continue
		}
		mn, mx := zc.min[m], zc.max[m]
		var may bool
		switch c.op {
		case "=":
			may = mn <= c.lit && c.lit <= mx
		case "<":
			may = mn < c.lit
		case "<=":
			may = mn <= c.lit
		case ">":
			may = mx > c.lit
		case ">=":
			may = mx >= c.lit
		}
		if !may {
			return false
		}
	}
	return true
}
