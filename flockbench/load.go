package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/pkg/flockclient"
)

// benchClient is one closed-loop SDK caller. When elapsed is set, its HTTP
// transport also reads the server-reported elapsed_ms of every reply (the
// SDK does not surface it).
type benchClient struct {
	c       *flockclient.Client
	elapsed *elapsedTransport
}

func dialClient(ctx context.Context, url string, user string, readElapsed bool) (*benchClient, error) {
	bc := &benchClient{}
	var opts []flockclient.Option
	if readElapsed {
		bc.elapsed = &elapsedTransport{base: http.DefaultTransport}
		opts = append(opts, flockclient.WithHTTPClient(&http.Client{Transport: bc.elapsed}))
	}
	c, err := flockclient.Dial(ctx, url, user, opts...)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", url, err)
	}
	bc.c = c
	return bc, nil
}

// elapsedTransport records the elapsed_ms field of the last reply. One
// transport serves one client goroutine.
type elapsedTransport struct {
	base http.RoundTripper
	last float64 // ms; negative when the reply carried none
}

var elapsedKey = []byte(`"elapsed_ms":`)

func (t *elapsedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	t.last = -1
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if i := bytes.LastIndex(body, elapsedKey); i >= 0 {
		rest := body[i+len(elapsedKey):]
		if j := bytes.IndexAny(rest, ",}"); j > 0 {
			var ms float64
			if json.Unmarshal(rest[:j], &ms) == nil {
				t.last = ms
			}
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// completion is one completed statement: when it completed, relative to
// the phase start, and its latency.
type completion struct {
	at, lat time.Duration
}

// loopStats is what one client observed in one phase.
type loopStats struct {
	reads     []completion // SELECT latencies as the client saw them
	commits   []completion // acknowledged INSERT latencies
	attempted int64
	failed    int64 // errors and refusals
	acked     int64 // INSERTs the server acknowledged
	wrong     int64 // replies that failed an output check
	firstErr  error

	// With an elapsed-reading transport: sums over replies that carried
	// elapsed_ms, of the server's elapsed time and of the client latency.
	serverMS, clientMS float64
	timed              int64
	latSum             time.Duration // every completed statement's latency
}

func (s *loopStats) note(err error) {
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// merge folds o into s.
func (s *loopStats) merge(o *loopStats) {
	s.reads = append(s.reads, o.reads...)
	s.commits = append(s.commits, o.commits...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.acked += o.acked
	s.wrong += o.wrong
	s.serverMS += o.serverMS
	s.clientMS += o.clientMS
	s.timed += o.timed
	s.latSum += o.latSum
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func (s *loopStats) completed() int64 { return s.attempted - s.failed }

// closedLoop runs every client against the workload until d has passed:
// each client sends its next statement only after the previous reply. It
// returns the merged stats and the wall time from start until the last
// client finished its final statement.
func closedLoop(ctx context.Context, clients []*benchClient, gens []*generator, w workloadSpec,
	ref *reference, d time.Duration) (loopStats, time.Duration) {
	per := make([]loopStats, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &per[i]
			bc, g := clients[i], gens[i]
			for time.Now().Before(deadline) && ctx.Err() == nil {
				s := g.next(w)
				st.attempted++
				t0 := time.Now()
				res, err := bc.c.Exec(ctx, s.sql)
				lat := time.Since(t0)
				if err != nil {
					st.failed++
					st.note(fmt.Errorf("%s: %w", s.sql, err))
					continue
				}
				st.latSum += lat
				at := t0.Sub(start) + lat
				if bc.elapsed != nil && bc.elapsed.last >= 0 {
					st.serverMS += bc.elapsed.last
					st.clientMS += float64(lat) / float64(time.Millisecond)
					st.timed++
				}
				if err := ref.check(s, res.Rows, res.Affected); err != nil {
					st.wrong++
					st.note(err)
					continue
				}
				if s.kind == kindInsert {
					st.acked++
					st.commits = append(st.commits, completion{at, lat})
				} else {
					st.reads = append(st.reads, completion{at, lat})
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	var all loopStats
	for i := range per {
		all.merge(&per[i])
	}
	return all, wall
}
