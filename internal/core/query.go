package core

// Pull-based query entry points. Exec* materializes whole results; Query*
// returns an engine.Cursor that produces batches on demand, so a caller
// (the serving layer's NDJSON drains and server-side cursors) holds
// O(batch) memory per result. The full governance path — access check,
// eager provenance capture, query log, audit — runs at open, BEFORE the
// first batch is released: a cursor in hand means the statement was
// authorized and recorded, and no batch ever flows to an unauthorized
// user.

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/sql"
)

// QueryLevel opens a cursor over a single SELECT on behalf of user at the
// given optimization level. Only a single SELECT statement can be
// cursored; DML and multi-statement strings must go through Exec*. The
// caller owns the cursor and must Close it (Collect-style drains
// included); the context passed to each Next bounds that pull only.
func (f *Flock) QueryLevel(ctx context.Context, user, query string, level opt.Level) (engine.Cursor, error) {
	stmts, err := f.parse(user, query, true)
	if err != nil {
		return nil, err
	}
	if _, ok := stmts[0].(*sql.SelectStmt); !ok {
		return nil, fmt.Errorf("core: Query requires a single SELECT statement; use Exec for %T", stmts[0])
	}
	s := newStatement(stmts[0])
	_, cur, err := f.run(ctx, user, &s, level, nil, true)
	return cur, err
}

// QueryPrepared opens a cursor over a prepared SELECT with the same
// governance path as ExecPrepared: per-execution access check (cache-shared
// plans are re-checked for this user), provenance capture, query log, and
// audit all happen before the plan is opened.
func (f *Flock) QueryPrepared(ctx context.Context, user string, p *Prepared) (engine.Cursor, error) {
	if _, ok := p.stmt.(*sql.SelectStmt); !ok {
		return nil, fmt.Errorf("core: QueryPrepared requires a prepared SELECT, have %s", p.Kind())
	}
	_, cur, err := f.run(ctx, user, &p.statement, p.Level, p, true)
	return cur, err
}
