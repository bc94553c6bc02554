package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// workload describes one named traffic mix: the fleet it runs against and
// how its inputs are generated from the seed.
type workload struct {
	backends    int
	coordinator bool
	prepare     func(seed int64, seconds int) (runner, error)
}

// runner drives one workload's prepared inputs against a fleet.
type runner interface {
	// warm sends the set-up warm-up request that compiles the rule set.
	warm(ctx context.Context, b *bench) error
	// window runs one measured window over the run's inputs on a fleet that
	// has seen none of them; pass 1 is the traced pass of a traced run.
	// Reference checks are queued on the window, not run.
	window(ctx context.Context, b *bench, pass int, tr *tracer) (*window, error)
	// probe measures server overhead and the coordinator hop after the
	// traced window.
	probe(ctx context.Context, b *bench, lay *layerReport) error
	// replay drives the run's inputs through each layer in-process.
	replay(tr *tracer, lay *layerReport) error
}

var workloads = map[string]workload{
	"dataset-person":    {backends: 1, prepare: prepareDataset},
	"fleet-batch-nba":   {backends: 2, coordinator: true, prepare: prepareBatch},
	"interactive-fleet": {backends: 2, coordinator: true, prepare: prepareInteractive},
}

// do sends one request with an optional JSON body and returns the status
// and the whole response body.
func do(ctx context.Context, c *http.Client, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// timedDo is do plus the wall time of the round trip.
func timedDo(ctx context.Context, c *http.Client, method, url string, body any) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	st, data, err := do(ctx, c, method, url, body)
	return st, data, time.Since(t0), err
}

// expect turns a non-matching status into an error carrying the body.
func expect(st int, data []byte, err error, want int) error {
	if err != nil {
		return err
	}
	if st != want {
		return fmt.Errorf("status %d: %.200s", st, data)
	}
	return nil
}
