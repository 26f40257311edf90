package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/server"
	"repro/internal/workload"
)

// The instance is booted the way `flock-serve -data-dir` boots one: a
// durable data directory with WAL sync "always", the Figure-4 customers
// table (seed 7, six regions, text on), the 50-tree churn pipeline, the
// inference plane with its default configuration, and the HTTP server on a
// loopback listener. The feedback table is the durable-mix write target;
// every workload creates it so that set-up is identical across workloads.

const (
	bootUser      = "flock-serve"
	tableSeed     = 7
	tableRegions  = 6
	trainRows     = 4000
	trainSeed     = 42
	trainTrees    = 50
	feedbackTable = "CREATE TABLE feedback (id int, label int, seq int)"
	// checkpointEvery matches flock-serve's default -checkpoint-interval;
	// a run is shorter, so no background checkpoint lands inside it.
	checkpointEvery = time.Minute
)

// instance is one booted Flock serving on a loopback port.
type instance struct {
	dir    string
	flock  *core.Flock
	dur    *core.Durability
	plane  *infer.Plane
	srv    *server.Server
	url    string
	served chan error

	// ckptErr receives background checkpoint failures; a run with one
	// is not a clean measurement.
	ckptErr chan error
}

// boot builds a fresh instance over an empty data directory dir.
func boot(dir string, rows int) (*instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	flock, dur, err := core.OpenDir(dir, core.DurabilityOptions{WALSync: true})
	if err != nil {
		return nil, fmt.Errorf("open data dir: %w", err)
	}
	in := &instance{dir: dir, flock: flock, dur: dur, ckptErr: make(chan error, 1)}
	fail := func(err error) (*instance, error) {
		_ = dur.Close()
		return nil, err
	}
	flock.Access.AssignRole(bootUser, "admin")
	if err := workload.LoadScoringTable(flock.DB, workload.ScoringConfig{
		Rows: rows, Seed: tableSeed, Regions: tableRegions, WithText: true,
	}); err != nil {
		return fail(err)
	}
	pipe, err := workload.TrainScoringPipeline(trainRows, trainSeed, trainTrees, true)
	if err != nil {
		return fail(fmt.Errorf("train churn pipeline: %w", err))
	}
	if _, err := flock.DeployPipeline(bootUser, "churn", pipe, core.TrainingInfo{
		Script: "flockbench bootstrap", Tables: []string{"customers"},
	}); err != nil {
		return fail(fmt.Errorf("deploy churn: %w", err))
	}
	if _, err := flock.Exec(bootUser, feedbackTable); err != nil {
		return fail(fmt.Errorf("create feedback table: %w", err))
	}

	in.srv = server.New(flock, server.Config{
		OnSession: func(user string) { flock.Access.AssignRole(user, "admin") },
	})
	in.plane = flock.EnableInferPlane(infer.Config{})
	in.srv.AttachInferPlane(in.plane)
	dur.Run(checkpointEvery, func(err error) {
		select {
		case in.ckptErr <- err:
		default:
		}
	})
	in.srv.AttachGauges(dur.Gauges)
	in.srv.AttachReopen(dur.Reopen)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		flock.DisableInferPlane()
		return fail(fmt.Errorf("listen: %w", err))
	}
	in.url = "http://" + ln.Addr().String()
	in.served = make(chan error, 1)
	go func() { in.served <- in.srv.Serve(ln) }()
	if err := waitHealthy(in.url); err != nil {
		_ = in.close()
		return nil, err
	}
	return in, nil
}

// waitHealthy polls /healthz until the listener answers.
func waitHealthy(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not become healthy: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close drains the server, stops the plane and the checkpointer (with the
// final checkpoint flock-serve takes on shutdown), and removes the data
// directory.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.served; serr != nil {
		err = errors.Join(err, serr)
	}
	in.flock.DisableInferPlane()
	err = errors.Join(err, in.dur.Close())
	select {
	case cerr := <-in.ckptErr:
		err = errors.Join(err, fmt.Errorf("background checkpoint: %w", cerr))
	default:
	}
	return errors.Join(err, os.RemoveAll(in.dir))
}
