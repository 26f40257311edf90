package engine

import (
	"context"
	"fmt"

	"repro/internal/sql"
)

// DML execution. Writes are copy-on-write at column granularity so that
// concurrent readers holding a snapshot never observe partial updates, and
// every write bumps the table version (feeding provenance's temporal model).

// whereMask evaluates an optional WHERE clause as a batch kernel and
// returns its truth mask over rs (nil when there is no clause, meaning
// every row matches).
func whereMask(where sql.Expr, rs *RowSet, env *compileEnv) ([]bool, error) {
	if where == nil {
		return nil, nil
	}
	fn, err := compileVec(where, rs.Schema, env)
	if err != nil {
		return nil, err
	}
	v, err := fn(rs)
	if err != nil {
		return nil, err
	}
	if err := v.pendingErr(rs.N); err != nil {
		return nil, err
	}
	m := v.truthyMask()
	if v.Const {
		hits := make([]bool, rs.N)
		if m[0] {
			for i := range hits {
				hits[i] = true
			}
		}
		return hits, nil
	}
	return m, nil
}

func (db *DB) execCreate(s *sql.CreateTableStmt) (*Result, error) {
	schema := make(Schema, len(s.Columns))
	for i, c := range s.Columns {
		t, err := ParseColType(c.Type)
		if err != nil {
			return nil, err
		}
		schema[i] = ColMeta{Name: c.Name, Type: t}
	}
	if _, err := db.CreateTable(s.Table, schema); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// ctxCheck polls ctx without blocking (the DML loops' cancellation
// checkpoint; nil never cancels).
func ctxCheck(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

func (db *DB) execInsertLevel(ctx context.Context, s *sql.InsertStmt, o ExecOptions) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()

	// Map statement columns onto table positions.
	target := make([]int, 0, len(schema))
	if len(s.Columns) == 0 {
		for i := range schema {
			target = append(target, i)
		}
	} else {
		for _, name := range s.Columns {
			idx, err := schema.Resolve("", name)
			if err != nil {
				return nil, err
			}
			target = append(target, idx)
		}
	}

	// Evaluate every row BEFORE applying any: cancellation and evaluation
	// errors can then only abort a statement that has written nothing —
	// a canceled INSERT never leaves a torn partial write behind.
	var buffered [][]Value

	if s.Query != nil {
		// INSERT ... SELECT: run the query, then append its rows (the batch
		// prediction write-back path: INSERT INTO scores SELECT id, PREDICT...).
		rs, err := db.selectRows(ctx, s.Query, o)
		if err != nil {
			return nil, err
		}
		if len(rs.Cols) != len(target) {
			return nil, fmt.Errorf("engine: INSERT ... SELECT produces %d columns for %d targets",
				len(rs.Cols), len(target))
		}
		buffered = make([][]Value, 0, rs.N)
		for r := 0; r < rs.N; r++ {
			if r%cancelBatchRows == 0 {
				if err := ctxCheck(ctx); err != nil {
					return nil, err
				}
			}
			vals := make([]Value, len(schema))
			assigned := make([]bool, len(schema))
			for i := range target {
				vals[target[i]] = rs.Cols[i].Value(r)
				assigned[target[i]] = true
			}
			for i := range vals {
				if !assigned[i] {
					vals[i] = NullValue()
				}
			}
			buffered = append(buffered, vals)
		}
	} else {
		env := &compileEnv{ctx: ctx, sessionFor: db.sessionFor, remoteFor: db.remoteFor, plane: db.plane()}
		oneRow := &RowSet{N: 1}
		buffered = make([][]Value, 0, len(s.Rows))
		for _, row := range s.Rows {
			if len(row) != len(target) {
				return nil, fmt.Errorf("engine: INSERT row has %d values for %d columns", len(row), len(target))
			}
			vals := make([]Value, len(schema))
			assigned := make([]bool, len(schema))
			for i, e := range row {
				fn, err := compileExpr(e, nil, env)
				if err != nil {
					return nil, err
				}
				v, err := fn(oneRow, 0)
				if err != nil {
					return nil, err
				}
				vals[target[i]] = v
				assigned[target[i]] = true
			}
			for i := range vals {
				if !assigned[i] {
					vals[i] = NullValue()
				}
			}
			buffered = append(buffered, vals)
		}
	}

	// Apply under the statement-level write lock so the batch append cannot
	// interleave with a concurrent UPDATE/DELETE rebuild of the same table.
	// The append is all-or-nothing and bumps the version once, so neither
	// cancellation nor a type error can commit a torn partial write; the
	// commit also lands one WAL record, making the acknowledged batch
	// crash-durable. The durability wait happens after the lock releases:
	// concurrent INSERTs on one table queue their frames back to back and
	// share a single group-commit fsync instead of paying one each.
	t.writeMu.Lock()
	if err := ctxCheck(ctx); err != nil {
		t.writeMu.Unlock()
		return nil, err
	}
	lsn, err := db.commitAppend(t, buffered)
	t.writeMu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := db.walWaitDurable(lsn); err != nil {
		return nil, err
	}
	return &Result{Affected: int64(len(buffered))}, nil
}

func (db *DB) execUpdate(ctx context.Context, s *sql.UpdateStmt, o ExecOptions) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	lsn, affected, err := db.execUpdateLocked(ctx, t, s)
	if err != nil {
		return nil, err
	}
	// Ack only after the rebuild's WAL frame is fsynced (group commit); the
	// statement lock is already released, so concurrent writers batch.
	if err := db.walWaitDurable(lsn); err != nil {
		return nil, err
	}
	return &Result{Affected: affected}, nil
}

func (db *DB) execUpdateLocked(ctx context.Context, t *Table, s *sql.UpdateStmt) (int64, int64, error) {
	// Statement-level write exclusion: the snapshot -> rebuild -> replace
	// sequence must not interleave with another writer, or that writer's
	// rows would be silently dropped by ReplaceColumns.
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	cols, schema, n := t.snapshot()
	rs := &RowSet{Schema: schema, Cols: cols, N: n}
	env := &compileEnv{ctx: ctx, sessionFor: db.sessionFor, remoteFor: db.remoteFor, plane: db.plane()}

	hits, err := whereMask(s.Where, rs, env)
	if err != nil {
		return 0, 0, err
	}
	type setOp struct {
		idx int
		fn  evalFunc
	}
	sets := make([]setOp, len(s.Sets))
	for i, sc := range s.Sets {
		idx, err := schema.Resolve("", sc.Column)
		if err != nil {
			return 0, 0, err
		}
		fn, err := compileExpr(sc.Value, schema, env)
		if err != nil {
			return 0, 0, err
		}
		sets[i] = setOp{idx: idx, fn: fn}
	}

	// Copy-on-write rebuild of the affected columns.
	newCols := make([]Column, len(cols))
	for i := range cols {
		newCols[i] = NewColumn(cols[i].Type)
	}
	var affected int64
	for r := 0; r < n; r++ {
		if r%cancelBatchRows == 0 {
			if err := ctxCheck(ctx); err != nil {
				return 0, 0, err
			}
		}
		hit := hits == nil || hits[r]
		rowVals := make([]Value, len(cols))
		for c := range cols {
			rowVals[c] = cols[c].Value(r)
		}
		if hit {
			for _, op := range sets {
				v, err := op.fn(rs, r)
				if err != nil {
					return 0, 0, err
				}
				rowVals[op.idx] = v
			}
			affected++
		}
		for c := range newCols {
			if err := newCols[c].Append(rowVals[c]); err != nil {
				return 0, 0, err
			}
		}
	}
	lsn, err := db.commitReplace(t, newCols)
	if err != nil {
		return 0, 0, err
	}
	return lsn, affected, nil
}

func (db *DB) execDelete(ctx context.Context, s *sql.DeleteStmt, o ExecOptions) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	lsn, affected, err := db.execDeleteLocked(ctx, t, s)
	if err != nil {
		return nil, err
	}
	// Same ack-after-group-fsync discipline as UPDATE.
	if err := db.walWaitDurable(lsn); err != nil {
		return nil, err
	}
	return &Result{Affected: affected}, nil
}

func (db *DB) execDeleteLocked(ctx context.Context, t *Table, s *sql.DeleteStmt) (int64, int64, error) {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	cols, schema, n := t.snapshot()
	rs := &RowSet{Schema: schema, Cols: cols, N: n}
	env := &compileEnv{ctx: ctx, sessionFor: db.sessionFor, remoteFor: db.remoteFor, plane: db.plane()}

	hits, err := whereMask(s.Where, rs, env)
	if err != nil {
		return 0, 0, err
	}
	var keep []int32
	var affected int64
	for r := 0; r < n; r++ {
		if r%cancelBatchRows == 0 {
			if err := ctxCheck(ctx); err != nil {
				return 0, 0, err
			}
		}
		hit := hits == nil || hits[r]
		if hit {
			affected++
		} else {
			keep = append(keep, int32(r))
		}
	}
	kept := rs.Gather(keep)
	lsn, err := db.commitReplace(t, kept.Cols)
	if err != nil {
		return 0, 0, err
	}
	return lsn, affected, nil
}
