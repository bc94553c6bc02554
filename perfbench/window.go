package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// window is what one measured window observed. Operations are the unit
// failures count against: an entity result for the dataset and batch
// workloads, a request for the interactive one.
type window struct {
	pass int

	mu        sync.Mutex
	attempted int
	failed    int
	// results counts entity resolutions received.
	results int
	elapsed time.Duration
	// reqs holds every successful request: the whole stream, the whole
	// batch, or one op timed from when it was due.
	reqs []request
	// completions holds the arrival time of every entity result.
	completions []time.Time
	// sliceEPS splits the window into slices and holds the entity results
	// per second of each. Throughput is the median over slices, so a burst
	// of interference on the shared host moves one slice, not the run.
	sliceEPS []float64
	// firstResult holds, per streaming request, the time from sending it
	// to receiving its first result line.
	firstResult []time.Duration
	// kinds holds request latencies by operation kind (batch, upsert, get,
	// session_round) and late the open-loop send lateness.
	kinds map[string][]time.Duration
	late  []time.Duration
	// timed counts requests sent in the window, failed ones included; limit
	// is the workload's latency limit for within_limit_share.
	timed int
	limit time.Duration
	// openLoop marks a window whose requests followed a fixed schedule.
	openLoop bool
	// cacheHits counts result lines the server marked as cached.
	cacheHits int

	// checks are comparisons against in-process references, run after the
	// window; each failing one adds a failure.
	checks []check
}

// check is one deferred correctness comparison; run returns how many of
// the operations it covers disagree with the reference.
type check struct {
	what string
	run  func() (int, error)
}

func newWindow(pass int) *window {
	return &window{pass: pass, kinds: make(map[string][]time.Duration)}
}

func (w *window) fail(format string, args ...any) {
	w.mu.Lock()
	w.failed++
	n := w.failed
	w.mu.Unlock()
	if n <= 5 {
		fmt.Printf("failure (pass %d): %s\n", w.pass, fmt.Sprintf(format, args...))
	}
}

func (w *window) addCheck(what string, fn func() (int, error)) {
	w.mu.Lock()
	w.checks = append(w.checks, check{what, fn})
	w.mu.Unlock()
}

// runChecks evaluates the deferred comparisons; a mismatch is a failure, an
// error computing a reference aborts the run.
func (w *window) runChecks() error {
	for _, c := range w.checks {
		bad, err := c.run()
		if err != nil {
			return fmt.Errorf("%s: %w", c.what, err)
		}
		for i := 0; i < bad; i++ {
			w.fail("mismatch: %s", c.what)
		}
	}
	fmt.Printf("pass %d: %d reference checks, %d failed of %d operations\n", w.pass, len(w.checks), w.failed, w.attempted)
	return nil
}

// request is one successful request's timing.
type request struct{ from, end time.Time }

func (r request) latency() time.Duration { return r.end.Sub(r.from) }

// slices is how many slices a window is split into.
const slices = 5

// sliceByTime splits [start, start+total) into equal slices and counts the
// entity results that arrived in each.
func (w *window) sliceByTime(start time.Time, total time.Duration) {
	w.sliceEPS = make([]float64, slices)
	width := total / slices
	for _, t := range w.completions {
		i := min(max(int(t.Sub(start)/width), 0), slices-1)
		w.sliceEPS[i] += 1 / width.Seconds()
	}
}

// entitiesPerSec is the median slice throughput.
func (w *window) entitiesPerSec() float64 { return median(w.sliceEPS) }

// latencyMs is the q-quantile request latency in milliseconds.
func (w *window) latencyMs(q float64) float64 { return quantile(ms(w.latencies()), q) }

// withinShare is the share of requests sent that succeeded within the
// workload's latency limit; a failed request counts as a miss.
func (w *window) withinShare() float64 {
	n := 0
	for _, r := range w.reqs {
		if r.latency() <= w.limit {
			n++
		}
	}
	return ratio(float64(n), float64(w.timed))
}

// latencies returns every request latency.
func (w *window) latencies() []time.Duration {
	out := make([]time.Duration, len(w.reqs))
	for i, r := range w.reqs {
		out[i] = r.latency()
	}
	return out
}

// report prints the window's raw counts and latency summaries.
func (w *window) report(label string) {
	fmt.Printf("%s: %d operations, %d failed, %d entity results in %.3fs, %d cached; per slice: %.4g entities/s, p50 %.4g ms, p90 %.4g ms\n",
		label, w.attempted, w.failed, w.results, w.elapsed.Seconds(), w.cacheHits, w.sliceEPS, w.latencyMs(0.5), w.latencyMs(0.9))
	kinds := make([]string, 0, len(w.kinds))
	for k := range w.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		l := ms(w.kinds[k])
		fmt.Printf("  %-14s n=%-6d p50=%.2fms p90=%.2fms p99=%.2fms\n", k, len(l),
			quantile(l, 0.5), quantile(l, 0.9), quantile(l, 0.99))
	}
	l := ms(w.latencies())
	fmt.Printf("  %-14s n=%-6d p50=%.2fms p90=%.2fms mean=%.2fms\n", "request", len(l), quantile(l, 0.5), quantile(l, 0.9), mean(l))
	fmt.Printf("  within %v: %.4f of %d requests\n", w.limit, w.withinShare(), w.timed)
}
