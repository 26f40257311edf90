// Command flockbench is the repository benchmark: a single-process load
// generator that boots Flock the way `flock-serve -data-dir` does and
// drives it through the Go SDK (pkg/flockclient) as closed-loop clients.
//
//	bash flockbench/run.sh --workload point-predict --seed 1 --seconds 40 --trace 0
//
// It must run from the repository root (run.sh builds and starts it
// there). Data directories and span dumps go under .bench_build/. The last
// line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 a separate traced run replays the same statements through
// each layer's public functions and reports per-layer metrics. See
// METRICS.md for every metric's definition and what it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	rows     int           // customers table size
	setups   int           // set-ups timed per run; setup_s is their median
	warmup   time.Duration // closed-loop traffic before measuring
	dataRoot string        // parent of the run's data directories

	// tamper, when set, edits the reference before any check runs (the
	// self-test uses it to prove a wrong reference fails the run).
	tamper func(*reference)
}

func main() {
	cfg := config{rows: 100000, setups: 3, warmup: 2 * time.Second, dataRoot: ".bench_build"}
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&cfg.workload, "workload", "", "point-predict | batch-scoring | durable-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (key permutation, Zipf draws, labels)")
	flag.IntVar(&cfg.seconds, "seconds", 40, "measured seconds")
	flag.Parse()
	cfg.trace = *trace == 1
	if err := preflight(cfg, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "flockbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flockbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flockbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// preflight rejects bad flags and a working directory that is not a
// repository checkout, before any work starts.
func preflight(cfg config, trace int) error {
	if _, err := workloadByName(cfg.workload); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	for _, p := range []string{"go.mod", "internal/core", "flockbench"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run. Lines before the result (conditions and
// supplementary figures) are written to out as JSON objects.
func run(cfg config, out io.Writer) (res result, err error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return res, err
	}
	if n := runtime.NumCPU(); w.clients > n {
		w.clients = n // never more closed-loop clients than cores
	}
	runDir := filepath.Join(cfg.dataRoot, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return res, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(runDir)) }()

	cond := conditions(cfg, w.clients, runDir)
	if err := emit(out, "conditions", cond); err != nil {
		return res, err
	}

	// Set up several times; keep the last instance for the measurement.
	setups := cfg.setups
	if cfg.trace {
		setups = 1 // a traced run reports no set-up metrics
	}
	var setupS, heapMB []float64
	var in *instance
	for i := 0; i < setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return res, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		in, err = boot(filepath.Join(runDir, fmt.Sprintf("data-%d", i)), cfg.rows)
		if err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		heapMB = append(heapMB, float64(memAfterGC().HeapInuse)/1e6)
	}
	defer func() {
		if cerr := in.close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("tear down: %w", cerr))
		}
	}()

	g, err := in.flock.Models.GraphFor("churn")
	if err != nil {
		return res, err
	}
	ref, err := buildReference(g, cfg.rows)
	if err != nil {
		return res, err
	}
	if cfg.tamper != nil {
		cfg.tamper(ref)
	}

	ctx := context.Background()
	keys := newKeySpace(cfg.rows, cfg.seed)
	plain, err := dialClients(ctx, in.url, w.clients, false)
	if err != nil {
		return res, err
	}
	defer closeClients(plain)
	gens := newGenerators(keys, cfg.seed, w.clients)

	warm, _ := closedLoop(ctx, plain, gens, w, ref, cfg.warmup)
	acked := warm.acked
	if warm.failed > 0 || warm.wrong > 0 {
		return res, fmt.Errorf("warm-up: %d failed, %d wrong: %w", warm.failed, warm.wrong, warm.firstErr)
	}

	var phase runOutcome
	if cfg.trace {
		phase, err = tracedRun(ctx, cfg, w, in, plain, gens, keys, ref, out)
	} else {
		phase, err = measuredRun(ctx, cfg, w, plain, gens, ref, out)
	}
	if err != nil {
		return res, err
	}
	if !cfg.trace {
		phase.metrics["setup_s"] = metric{median(setupS), "s"}
		phase.metrics["heap_setup_mb"] = metric{median(heapMB), "MB"}
	}
	acked += phase.acked

	// Every acknowledged INSERT must be durable and visible.
	cnt, err := plain[0].c.Exec(ctx, countSQL)
	if err != nil {
		return res, fmt.Errorf("feedback count: %w", err)
	}
	correct := phase.wrong == 0
	if len(cnt.Rows) != 1 {
		correct = false
		phase.note(fmt.Errorf("feedback count returned %d rows", len(cnt.Rows)))
	} else if n, ok := cnt.Rows[0][0].(int64); !ok || n != acked {
		correct = false
		phase.note(fmt.Errorf("feedback holds %v rows, %d INSERTs were acknowledged", cnt.Rows[0][0], acked))
	}
	if phase.firstErr != nil {
		fmt.Fprintln(os.Stderr, "flockbench: first problem:", phase.firstErr)
	}
	return result{Correct: correct, Attempted: phase.attempted, Failed: phase.failed, Metrics: phase.metrics}, nil
}

// runOutcome is what a measured or traced phase hands back to run.
type runOutcome struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	wrong     int64
	acked     int64
	firstErr  error
}

func (o *runOutcome) note(err error) {
	if o.firstErr == nil {
		o.firstErr = err
	}
}

func (o *runOutcome) add(s *loopStats) {
	o.attempted += s.attempted
	o.failed += s.failed
	o.wrong += s.wrong
	o.acked += s.acked
	if s.firstErr != nil {
		o.note(s.firstErr)
	}
}

// measuredRun is the untraced, end-to-end measurement.
func measuredRun(ctx context.Context, cfg config, w workloadSpec, clients []*benchClient,
	gens []*generator, ref *reference, out io.Writer) (runOutcome, error) {
	before := memAfterGC()
	steal0, total0, stealOK := cpuTicks()
	peak := watchLiveHeap()
	st, wall := closedLoop(ctx, clients, gens, w, ref, time.Duration(cfg.seconds)*time.Second)
	livePeak, liveMean := peak()
	steal1, total1, _ := cpuTicks()
	after := memAfterGC()

	o := runOutcome{metrics: map[string]metric{}}
	o.add(&st)
	done := float64(st.completed())
	if len(st.reads) == 0 {
		return o, fmt.Errorf("no read completed: %v", st.firstErr)
	}
	sum := summarize(st.reads, st.commits, wall)
	o.metrics["throughput_ops_s"] = metric{sum.throughput, "1/s"}
	o.metrics["latency_p50_ms"] = metric{sum.p50, "ms"}
	o.metrics["latency_p90_ms"] = metric{sum.p90, "ms"}
	o.metrics["latency_tail_ms"] = metric{sum.tail, "ms"}
	o.metrics["alloc_kb_per_op"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / done / 1e3, "KB"}
	o.metrics["heap_live_mb"] = metric{liveMean / 1e6, "MB"}

	// Figures the result line has no place for: write latency
	// (durable-mix only), the failure ratio, sample counts, and host steal.
	extra := map[string]any{
		"reads": len(st.reads), "commits": len(st.commits),
		"chunks": sum.chunks, "tail_quantile": sum.tailQ,
		"distinct_keys":    distinctKeys(gens),
		"ops_failed_ratio": float64(st.failed) / float64(st.attempted),
		"wall_s":           wall.Seconds(),
		"heap_peak_mb":     float64(livePeak) / 1e6,
		// Live-heap growth across the phase: too unsteady to gate on, because
		// the plane's per-plan fingerprint memo holds a graph clone per plan
		// and is dropped every 4096 plans, a sawtooth of a few hundred MB.
		"retained_kb_per_op": (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / done / 1e3,
	}
	if stealOK && total1 > total0 {
		// Host contention: results with very different steal shares are
		// not comparable.
		extra["cpu_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if len(st.commits) > 0 {
		commits := latenciesMS(st.commits)
		extra["commit_p50_ms"] = quantile(commits, 0.50)
		extra["commit_p99_ms"] = quantile(commits, 0.99)
	}
	return o, emit(out, "supplementary", extra)
}

func dialClients(ctx context.Context, url string, n int, readElapsed bool) ([]*benchClient, error) {
	var cs []*benchClient
	for i := 0; i < n; i++ {
		c, err := dialClient(ctx, url, fmt.Sprintf("bench-%d", i), readElapsed)
		if err != nil {
			closeClients(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeClients(cs []*benchClient) {
	for _, c := range cs {
		_ = c.c.Close(context.Background()) // the server drops sessions at shutdown anyway
	}
}

func newGenerators(keys *keySpace, seed uint64, n int) []*generator {
	gens := make([]*generator, n)
	for i := range gens {
		gens[i] = newGenerator(keys, seed, i)
	}
	return gens
}

// emit writes one {"<key>": v} line.
func emit(out io.Writer, key string, v any) error {
	b, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// memAfterGC forces collections and reads the heap statistics. The
// second GC frees what sync.Pool victim caches kept alive through the
// first.
func memAfterGC() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// watchLiveHeap samples the live heap (as of each GC's end) every 10 ms
// until the returned function is called, which returns the largest sample
// and the mean.
func watchLiveHeap() func() (peak uint64, mean float64) {
	stop := make(chan struct{})
	type result struct {
		peak uint64
		mean float64
	}
	done := make(chan result)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		var sum float64
		var n int
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			peak = max(peak, v)
			sum += float64(v)
			n++
			select {
			case <-stop:
				done <- result{peak, sum / float64(n)}
				return
			case <-tick.C:
			}
		}
	}()
	return func() (uint64, float64) {
		close(stop)
		r := <-done
		return r.peak, r.mean
	}
}
