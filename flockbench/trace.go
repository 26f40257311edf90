package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/governance"
	"repro/internal/onnx"
	"repro/internal/sql"
)

// The traced run. It measures each layer from outside the program: it
// times calls into each module's public functions, in the order
// core.execOne and engine.ExecAsContext make them, and reads the counters
// the modules export. It has two phases of equal length after the warm-up:
//
//  1. HTTP: the closed-loop SDK traffic, in alternating blocks with the
//     benchmark's instrumentation off and on (plane timing wrapper plus a
//     transport that reads each reply's elapsed_ms). The server, plane and
//     WAL-size counters are read as deltas over the phase.
//  2. Replay: the same seeded statement streams run in-process through
//     sql.Parse → FormatStatement → Analyze/Check → CaptureQuery →
//     Parse/FormatStatement/LogStatement (the engine's re-parse and query
//     log) → PlanSelect → OpenPlanCursor+Collect, or ExecStmtContext for a
//     write → AuditLog.Record → JSON encode, recording a span around each.

// span is one timed layer call of one replayed statement.
type span struct {
	stmt       int64
	id, parent int32 // indexes into the recorder's spans; parent -1 = root
	name       string
	start, end int64 // ns since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. The plane wrapper
// appends from the engine's morsel workers, hence the lock.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// reserve allocates a span slot whose children are recorded before it ends.
func (r *recorder) reserve() int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{})
	return int32(len(r.spans) - 1)
}

func (r *recorder) set(id int32, stmt int64, name string, parent int32, t0, t1 time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id] = span{stmt: stmt, id: id, parent: parent, name: name,
		start: int64(t0.Sub(r.epoch)), end: int64(t1.Sub(r.epoch))}
}

func (r *recorder) add(stmt int64, name string, parent int32, t0, t1 time.Time) {
	r.set(r.reserve(), stmt, name, parent, t0, t1)
}

type spanKey struct{}

// spanCtx tells the plane wrapper which span its calls belong to.
type spanCtx struct {
	rec    *recorder
	stmt   int64
	parent int32
}

// timedPlane wraps the real inference plane through the public
// engine.PredictPlane interface: it counts calls and rows and, inside a
// replayed statement, records an "infer.score" span per call.
type timedPlane struct {
	inner       engine.PredictPlane
	calls, rows atomic.Int64
}

func (p *timedPlane) Score(ctx context.Context, model string, g *onnx.Graph, b *onnx.Batch, out []float64) error {
	t0 := time.Now()
	err := p.inner.Score(ctx, model, g, b, out)
	t1 := time.Now()
	p.calls.Add(1)
	p.rows.Add(int64(b.N))
	if sc, ok := ctx.Value(spanKey{}).(spanCtx); ok {
		sc.rec.add(sc.stmt, "infer.score", sc.parent, t0, t1)
	}
	return err
}

// counterSnap is the exported counters the traced run differences.
type counterSnap struct {
	plane                map[string]float64
	walBytes             int64
	admWaitS, admWaitCnt float64
}

func snapCounters(in *instance) (counterSnap, error) {
	s := counterSnap{plane: in.plane.Gauges(), walBytes: in.flock.DB.WALSizeBytes()}
	var err error
	s.admWaitS, s.admWaitCnt, err = admissionWait(in.url)
	return s, err
}

// admissionWait reads flock_admission_wait_seconds' sum and count from
// /metrics.
func admissionWait(url string) (sum, count float64, err error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "flock_admission_wait_seconds_sum":
			sum, err = strconv.ParseFloat(val, 64)
		case "flock_admission_wait_seconds_count":
			count, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("/metrics %s: %w", name, err)
		}
	}
	return sum, count, sc.Err()
}

// tracedRun runs both phases and computes the per-layer metrics.
func tracedRun(ctx context.Context, cfg config, w workloadSpec, in *instance, plain []*benchClient,
	gens []*generator, keys *keySpace, ref *reference, out io.Writer) (runOutcome, error) {
	o := runOutcome{metrics: map[string]metric{}}
	half := time.Duration(cfg.seconds) * time.Second / 2
	wrapper := &timedPlane{inner: in.plane}
	defer in.flock.DB.SetPredictPlane(in.plane)

	// Phase 1: HTTP, instrumentation off and on in ABBA-ordered blocks so
	// that drift (the score cache filling) cancels out of the ratio.
	traced, err := dialClients(ctx, in.url, len(plain), true)
	if err != nil {
		return o, err
	}
	defer closeClients(traced)
	before, err := snapCounters(in)
	if err != nil {
		return o, err
	}
	blocks := 2 * max(1, int(half/(2*time.Second)))
	var off, on loopStats
	for b := 0; b < blocks; b++ {
		instrumented := b%4 == 1 || b%4 == 2
		clients, dst := plain, &off
		if instrumented {
			clients, dst = traced, &on
			in.flock.DB.SetPredictPlane(wrapper)
		} else {
			in.flock.DB.SetPredictPlane(in.plane)
		}
		st, _ := closedLoop(ctx, clients, gens, w, ref, half/time.Duration(blocks))
		dst.merge(&st)
	}
	after, err := snapCounters(in)
	if err != nil {
		return o, err
	}
	o.add(&off)
	o.add(&on)
	httpOps := float64(off.completed() + on.completed())
	if on.timed == 0 || off.completed() == 0 || httpOps == 0 {
		return o, fmt.Errorf("HTTP phase completed no statements: %v", o.firstErr)
	}

	// Phase 2: replay with spans.
	wrapper.calls.Store(0)
	wrapper.rows.Store(0)
	in.flock.DB.SetPredictPlane(wrapper)
	rp, err := replay(ctx, in.flock, w, newGenerators(keys, cfg.seed, len(plain)), ref, half)
	if err != nil {
		return o, err
	}
	o.add(&rp.stats)
	if rp.stmts == 0 {
		return o, fmt.Errorf("replay completed no statements: %v", o.firstErr)
	}
	if err := dumpSpans(cfg, rp.spans); err != nil {
		return o, err
	}
	wp, err := writeProbe(ctx, in.flock, len(plain))
	if err != nil {
		return o, err
	}
	o.add(&wp.stats)

	perOp := func(ns int64) float64 { return float64(ns) / float64(rp.stmts) / 1e3 }
	layer := rp.layerNS()
	m := o.metrics
	us := func(name string, v float64) { m[name] = metric{v, "us"} }

	elapsedUS := on.serverMS / float64(on.timed) * 1e3
	admissionUS := (after.admWaitS - before.admWaitS) / httpOps * 1e6
	us("server.elapsed_us", elapsedUS)
	us("server.overhead_us", (on.clientMS-on.serverMS)/float64(on.timed)*1e3)
	us("server.encode_us", perOp(layer["server.encode"]))
	us("sql.parse_us", perOp(layer["sql.parse"]))
	us("sql.format_us", perOp(layer["sql.format"]))
	us("governance.check_us", perOp(layer["governance.check"]))
	us("governance.audit_us", perOp(layer["governance.audit"]))
	us("provenance.capture_us", perOp(layer["provenance.capture"]))
	us("opt.plan_us", perOp(layer["opt.plan"]))
	us("engine.exec_us", perOp(layer["engine.exec"]))
	us("engine.log_append_us", perOp(layer["engine.log"]))
	us("engine.wal_commit_us", wp.commitUS)
	us("infer.score_us", perOp(layer["infer.score"]))
	m["engine.rows_scanned_per_row_out"] = metric{ratio(float64(rp.scanned), float64(rp.rowsOut)), "ratio"}
	m["engine.records_per_fsync"] = metric{wp.recordsPerFsync, "count"}
	m["engine.wal_bytes_per_op"] = metric{float64(after.walBytes-before.walBytes) / httpOps, "B"}
	m["infer.rows_per_call"] = metric{ratio(float64(wrapper.rows.Load()), float64(wrapper.calls.Load())), "rows"}
	d := func(k string) float64 { return after.plane[k] - before.plane[k] }
	hits, misses := d("flock_infer_cache_hits_total"), d("flock_infer_cache_misses_total")
	m["infer.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["infer.batch_occupancy"] = metric{ratio(d("flock_infer_batch_rows_total"), d("flock_infer_batch_calls_total")), "rows"}
	coalesced := d("flock_infer_coalesced_total")
	m["infer.coalesced_ratio"] = metric{ratio(coalesced, coalesced+d("flock_infer_direct_total")), "ratio"}

	shape := max(1, int(math.Round(m["infer.rows_per_call"].Value)))
	floor, err := onnxFloor(in, ref, shape)
	if err != nil {
		return o, err
	}
	m["onnx.score_ns_per_row"] = metric{floor, "ns"}

	var covered int64
	for name, ns := range layer {
		if name != "server.encode" { // encoding happens after elapsed_ms is taken
			covered += ns
		}
	}
	m["trace.coverage"] = metric{(perOp(covered) + admissionUS) / elapsedUS, "ratio"}
	m["trace.overhead_ratio"] = metric{
		(float64(on.latSum) / float64(on.completed())) / (float64(off.latSum) / float64(off.completed())), "ratio"}

	return o, emit(out, "supplementary", map[string]any{
		"http_ops": httpOps, "replayed": rp.stmts, "spans": len(rp.spans),
		"admission_wait_us_per_op": admissionUS,
		"admission_waits":          after.admWaitCnt - before.admWaitCnt,
		"onnx_batch_rows":          shape,
	})
}

// ratio is num/den, or 0 when the layer did no work (den == 0), the
// convention the plane's own occupancy gauge uses.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// replayResult is the replay phase's spans and counts.
type replayResult struct {
	spans   []span
	stmts   int64
	scanned int64 // base-table rows read (engine.ExecCounters)
	rowsOut int64 // SELECT result rows
	stats   loopStats
}

// layerNS sums each layer's self time: a span's duration minus the part
// of it its child spans cover. Children of one name are charged to that
// name as the union of their intervals, so the parallel plane calls of a
// morsel-driven PREDICT count once in wall time. Statement roots are the
// replay's own glue and are not a layer.
func (rr *replayResult) layerNS() map[string]int64 {
	kids := map[int32][]span{}
	for _, s := range rr.spans {
		if s.parent >= 0 && s.name != "statement" {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range rr.spans {
		if s.name == "statement" {
			continue
		}
		own := s.end - s.start
		byName := map[string][]span{}
		for _, k := range kids[s.id] {
			byName[k.name] = append(byName[k.name], k)
		}
		for name, ks := range byName {
			cov := unionNS(ks, s.start, s.end)
			out[name] += cov
			own -= cov
		}
		if s.parent >= 0 && rr.spans[s.parent].name != "statement" {
			continue // charged to the parent's union above
		}
		out[s.name] += own
	}
	return out
}

// unionNS is the length of the union of the spans' intervals within [lo, hi).
func unionNS(ss []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(ss))
	for _, s := range ss {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// replay runs every client's statement stream in-process for d.
func replay(ctx context.Context, f *core.Flock, w workloadSpec, gens []*generator,
	ref *reference, d time.Duration) (*replayResult, error) {
	epoch := time.Now()
	deadline := epoch.Add(d)
	var seq atomic.Int64
	workers := make([]*replayer, len(gens))
	var wg sync.WaitGroup
	for i := range gens {
		rp := &replayer{f: f, user: fmt.Sprintf("bench-%d", i), rec: &recorder{epoch: epoch}, seq: &seq}
		f.Access.AssignRole(rp.user, "admin") // as the server's OnSession hook does
		workers[i] = rp
		wg.Add(1)
		go func(g *generator) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				s := g.next(w)
				rp.stats.attempted++
				res, err := rp.exec(ctx, s)
				if err != nil {
					rp.stats.failed++
					rp.stats.note(fmt.Errorf("replay %s: %w", s.sql, err))
					continue
				}
				if err := ref.check(s, res.Rows, res.Affected); err != nil {
					rp.stats.wrong++
					rp.stats.note(fmt.Errorf("replay: %w", err))
					continue
				}
				if s.kind == kindInsert {
					rp.stats.acked++
				}
			}
		}(gens[i])
	}
	wg.Wait()

	rr := &replayResult{}
	for _, rp := range workers {
		// Span ids index per-worker slices; rebase them into one list.
		base := int32(len(rr.spans))
		for _, s := range rp.rec.spans {
			s.id += base
			if s.parent >= 0 {
				s.parent += base
			}
			rr.spans = append(rr.spans, s)
		}
		rr.scanned += rp.counters.RowsScanned.Load()
		rr.rowsOut += rp.rowsOut
		rr.stats.merge(&rp.stats)
	}
	rr.stmts = rr.stats.completed()
	return rr, nil
}

// replayer replays one client's statements through the layers.
type replayer struct {
	f        *core.Flock
	user     string
	rec      *recorder
	seq      *atomic.Int64
	counters engine.ExecCounters
	rowsOut  int64
	stats    loopStats
	enc      bytes.Buffer
}

// reply mirrors the server's query response encoding.
type reply struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	Affected  int64    `json:"affected"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// exec replays one statement the way the server's /v1/query path runs it
// (core.ExecLevelContext → core.execOne → engine.ExecAsContext), with a
// span around every layer call.
func (rp *replayer) exec(ctx context.Context, s stmt) (res *engine.Result, err error) {
	r, id := rp.rec, rp.seq.Add(1)
	root := r.reserve()
	begin := time.Now()
	defer func() { r.set(root, id, "statement", -1, begin, time.Now()) }()
	t := begin
	mark := func(name string) {
		now := time.Now()
		r.add(id, name, root, t, now)
		t = now
	}

	stmts, err := sql.Parse(s.sql) // core's parse
	mark("sql.parse")
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("want one statement, parsed %d", len(stmts))
	}
	st := stmts[0]
	text := sql.FormatStatement(st)
	mark("sql.format")
	acc := sql.Analyze(st)
	err = checkAccess(rp.f.Access, rp.user, st, acc)
	mark("governance.check")
	if err != nil {
		return nil, err
	}
	_, err = rp.f.Prov.CaptureQuery(text, rp.user)
	mark("provenance.capture")
	if err != nil {
		return nil, err
	}

	// engine.ExecAsContext re-parses the text and formats it for the
	// query log, which it appends to the WAL.
	estmts, err := sql.Parse(text)
	mark("sql.parse")
	if err != nil {
		return nil, err
	}
	est := estmts[0]
	logText := sql.FormatStatement(est)
	mark("sql.format")
	rp.f.DB.LogStatement(logText, rp.user)
	mark("engine.log")

	opts := engine.ExecOptions{Level: rp.f.DB.DefaultLevel, Counters: &rp.counters}
	if sel, ok := est.(*sql.SelectStmt); ok {
		res, err = rp.selectStmt(ctx, id, root, &t, sel, opts)
	} else {
		res, err = rp.f.DB.ExecStmtContext(ctx, est, opts)
		mark("engine.commit")
	}
	rp.f.Audit.Record(rp.user, stmtAction(st), firstObject(acc), truncate(text), err == nil)
	mark("governance.audit")
	if err != nil {
		return nil, err
	}

	rp.enc.Reset()
	err = json.NewEncoder(&rp.enc).Encode(reply{Columns: res.Columns, Rows: res.Rows,
		Affected: res.Affected, ElapsedMS: float64(time.Since(begin).Microseconds()) / 1000})
	mark("server.encode")
	return res, err
}

// selectStmt plans and executes a SELECT as engine.ExecSelectContext
// does; plane calls made under the cursor become children of its span.
func (rp *replayer) selectStmt(ctx context.Context, id int64, root int32, t *time.Time,
	sel *sql.SelectStmt, opts engine.ExecOptions) (*engine.Result, error) {
	r := rp.rec
	plan, err := rp.f.DB.PlanSelect(sel, opts.Level)
	now := time.Now()
	r.add(id, "opt.plan", root, *t, now)
	*t = now
	if err != nil {
		return nil, err
	}
	plan.Report.Parallelism = opts.MaxWorkers()
	exec := r.reserve()
	sctx := context.WithValue(ctx, spanKey{}, spanCtx{rec: r, stmt: id, parent: exec})
	var rs *engine.RowSet
	cur, err := rp.f.DB.OpenPlanCursor(sctx, plan, opts)
	if err == nil {
		rs, err = engine.Collect(sctx, cur)
	}
	var res *engine.Result
	if err == nil {
		res = engine.ResultFromRowSet(rs)
		rp.rowsOut += int64(rs.N)
	}
	now = time.Now()
	r.set(exec, id, "engine.exec", root, *t, now)
	*t = now
	return res, err
}

// checkAccess makes the AccessController.Check calls core makes before a
// SELECT or INSERT executes (the workloads issue no other statements).
func checkAccess(ac *governance.AccessController, user string, st sql.Statement, acc sql.Access) error {
	for _, m := range acc.Models {
		if err := ac.Check(user, governance.ActScore, governance.ModelObject(m)); err != nil {
			return err
		}
	}
	switch st.(type) {
	case *sql.SelectStmt:
		for _, t := range acc.ReadTables {
			if err := ac.Check(user, governance.ActSelect, governance.TableObject(t)); err != nil {
				return err
			}
		}
	case *sql.InsertStmt:
		for _, t := range acc.WriteTables {
			if err := ac.Check(user, governance.ActInsert, governance.TableObject(t)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("replay supports SELECT and INSERT, got %T", st)
	}
	return nil
}

// stmtAction, firstObject and truncate mirror core's audit-entry fields.
func stmtAction(st sql.Statement) string {
	if _, ok := st.(*sql.InsertStmt); ok {
		return "insert"
	}
	return "select"
}

func firstObject(acc sql.Access) string {
	switch {
	case len(acc.WriteTables) > 0:
		return string(governance.TableObject(acc.WriteTables[0]))
	case len(acc.ReadTables) > 0:
		return string(governance.TableObject(acc.ReadTables[0]))
	case len(acc.Models) > 0:
		return string(governance.ModelObject(acc.Models[0]))
	}
	return ""
}

func truncate(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// The write probe: durable single-row INSERTs into feedback through
// DB.ExecStmtContext, from as many concurrent writers as the workload has
// clients, after the replay. It measures the WAL append, fsync and group
// commit on every workload, including the read-only ones.
const probeWrites = 200 // per writer

type probeResult struct {
	commitUS        float64 // mean ExecStmtContext time per INSERT
	recordsPerFsync float64 // WALGroupCommitStats delta
	stats           loopStats
}

func writeProbe(ctx context.Context, f *core.Flock, writers int) (probeResult, error) {
	var pr probeResult
	stmts := make([][]sql.Statement, writers)
	for w := range stmts {
		for i := 0; i < probeWrites; i++ {
			seq := int64(1)<<40 | int64(w)<<32 | int64(i)
			parsed, err := sql.Parse(fmt.Sprintf(insertSQL, i+1, i%2, seq))
			if err != nil {
				return pr, err
			}
			stmts[w] = append(stmts[w], parsed[0])
		}
	}
	opts := engine.ExecOptions{Level: f.DB.DefaultLevel}
	per := make([]loopStats, writers)
	syncs0, records0 := f.DB.WALGroupCommitStats()
	var wg sync.WaitGroup
	for w := range stmts {
		wg.Add(1)
		go func(st *loopStats, stmts []sql.Statement) {
			defer wg.Done()
			for _, s := range stmts {
				st.attempted++
				t0 := time.Now()
				res, err := f.DB.ExecStmtContext(ctx, s, opts)
				lat := time.Since(t0)
				switch {
				case err != nil:
					st.failed++
					st.note(fmt.Errorf("write probe: %w", err))
				case res.Affected != 1:
					st.wrong++
					st.note(fmt.Errorf("write probe: INSERT affected %d rows", res.Affected))
				default:
					st.acked++
					st.latSum += lat
				}
			}
		}(&per[w], stmts[w])
	}
	wg.Wait()
	syncs1, records1 := f.DB.WALGroupCommitStats()
	for i := range per {
		pr.stats.merge(&per[i])
	}
	if pr.stats.acked == 0 {
		return pr, fmt.Errorf("write probe: no INSERT acknowledged: %v", pr.stats.firstErr)
	}
	pr.commitUS = float64(pr.stats.latSum.Microseconds()) / float64(pr.stats.acked)
	pr.recordsPerFsync = ratio(float64(records1-records0), float64(syncs1-syncs0))
	return pr, nil
}

// onnxFloor times Session.RunInto on batches of the workload's shape,
// cycling through the table's rows: the native scoring floor, as the
// median of five timed rounds.
func onnxFloor(in *instance, ref *reference, rows int) (float64, error) {
	g, err := in.flock.Models.GraphFor("churn")
	if err != nil {
		return 0, err
	}
	sess, err := onnx.NewSession(g)
	if err != nil {
		return 0, err
	}
	rows = min(rows, ref.batch.N)
	out := make([]float64, rows)
	slice := func(lo int) *onnx.Batch {
		b := &onnx.Batch{N: rows, Cols: make([]onnx.Column, len(ref.batch.Cols))}
		for i, c := range ref.batch.Cols {
			if c.Nums != nil {
				b.Cols[i].Nums = c.Nums[lo : lo+rows]
			} else {
				b.Cols[i].Strs = c.Strs[lo : lo+rows]
			}
		}
		return b
	}
	const rounds, perRound = 5, 60 * time.Millisecond
	var perRow []float64
	lo := 0
	for k := 0; k < rounds; k++ {
		var n int
		start := time.Now()
		for time.Since(start) < perRound {
			if lo+rows > ref.batch.N {
				lo = 0
			}
			if err := sess.RunInto(slice(lo), out); err != nil {
				return 0, err
			}
			lo += rows
			n += rows
		}
		perRow = append(perRow, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(perRow), nil
}

// dumpSpans writes the replay's spans as CSV under the data root.
func dumpSpans(cfg config, spans []span) error {
	dir := filepath.Join(cfg.dataRoot, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "stmt,span,parent,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d\n", s.stmt, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
