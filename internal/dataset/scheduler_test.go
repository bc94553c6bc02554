package dataset

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conflictres/internal/relation"
)

// rowIndex reads the input position rowsFor stores in a row's last cell.
func rowIndex(t relation.Tuple) int64 { return t[2].Int64() }

// TestSchedulerSplitKeysSerialAndOrdered streams an unclustered input
// through a tiny window, so every key is split into many chunks, and
// requires that no key ever resolves twice at once and that each key's
// chunks resolve and reach the writer in input order.
func TestSchedulerSplitKeysSerialAndOrdered(t *testing.T) {
	const nKeys, perKey = 6, 40
	var keys []string
	for i := range nKeys * perKey {
		keys = append(keys, fmt.Sprintf("k%d", i%nKeys))
	}
	var (
		mu      sync.Mutex
		active  = map[string]int{}
		started = map[string][]int64{}
		overlap []string
	)
	res := func(key string, in *relation.Instance) Outcome {
		mu.Lock()
		active[key]++
		if active[key] > 1 {
			overlap = append(overlap, key)
		}
		started[key] = append(started[key], rowIndex(in.Tuple(0)))
		jitter := time.Duration(rand.Intn(200)) * time.Microsecond
		mu.Unlock()
		time.Sleep(jitter)
		mu.Lock()
		active[key]--
		mu.Unlock()
		return Outcome{Valid: true, Tuple: in.Tuple(0).Clone()}
	}
	w := &memWriter{}
	stats, err := Run(context.Background(), testSchema, &sliceReader{rows: rowsFor(keys...)}, res, w,
		Options{Shards: 4, WindowRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(overlap) > 0 {
		t.Fatalf("keys resolved concurrently with themselves: %v", overlap)
	}
	if stats.SplitEntities != nKeys {
		t.Fatalf("split entities = %d, want %d (the window must split every key)", stats.SplitEntities, nKeys)
	}
	written := map[string][]int64{}
	rows := 0
	for _, r := range w.results {
		written[r.Key] = append(written[r.Key], rowIndex(r.Tuple))
		rows += r.Rows
	}
	if rows != len(keys) {
		t.Fatalf("results cover %d rows, want %d", rows, len(keys))
	}
	for k, seq := range written {
		for _, order := range [][]int64{started[k], seq} {
			for i := 1; i < len(order); i++ {
				if order[i] <= order[i-1] {
					t.Fatalf("key %s: chunks out of input order: %v", k, order)
				}
			}
		}
		if len(seq) < 2 {
			t.Fatalf("key %s resolved in %d chunk(s), want a split", k, len(seq))
		}
	}
}

// TestSchedulerSlowKeyDoesNotHoldBackOthers parks one key's resolution
// until every other key has been written: with a shared queue the other
// worker drains them all, whatever their keys hash to.
func TestSchedulerSlowKeyDoesNotHoldBackOthers(t *testing.T) {
	const others = 40
	keys := []string{"slow"}
	for i := range others {
		keys = append(keys, fmt.Sprintf("k%02d", i))
	}
	release := make(chan struct{})
	res := func(key string, in *relation.Instance) Outcome {
		if key == "slow" {
			<-release
		}
		return Outcome{Valid: true, Tuple: in.Tuple(0).Clone()}
	}
	w := &notifyWriter{want: others, done: make(chan struct{})}
	errc := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), testSchema, &sliceReader{rows: rowsFor(keys...)}, res, w,
			Options{Shards: 2, Sorted: true})
		errc <- err
	}()
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		got := w.n.Load()
		close(release)
		<-errc
		t.Fatalf("%d of %d other keys written while one key was slow", got, others)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := w.n.Load(); got != others+1 {
		t.Fatalf("wrote %d results, want %d", got, others+1)
	}
}

// notifyWriter counts results and closes done once want results other
// than the slow key's have arrived.
type notifyWriter struct {
	want  int64
	n     atomic.Int64
	other int64
	done  chan struct{}
}

func (w *notifyWriter) Write(r *Result) error {
	w.n.Add(1)
	if r.Key != "slow" {
		if w.other++; w.other == w.want {
			close(w.done)
		}
	}
	return nil
}

func (w *notifyWriter) Flush() error { return nil }

// countingReader counts the rows handed to the engine.
type countingReader struct {
	sliceReader
	reads atomic.Int64
}

func (r *countingReader) Read() (Row, error) {
	row, err := r.sliceReader.Read()
	if err == nil {
		r.reads.Add(1)
	}
	return row, err
}

// TestSchedulerInFlightBound blocks every resolution and requires the
// engine to stop reading once InFlightPerWorker × Shards groups wait
// unresolved, with no more than Shards resolutions running at once.
func TestSchedulerInFlightBound(t *testing.T) {
	const workers = 2
	bound := int64(InFlightPerWorker * workers)
	var keys []string
	for i := range 10 * bound {
		keys = append(keys, fmt.Sprintf("k%03d", i))
	}
	gate := make(chan struct{})
	var running, maxRunning atomic.Int64
	res := func(key string, in *relation.Instance) Outcome {
		n := running.Add(1)
		for m := maxRunning.Load(); n > m && !maxRunning.CompareAndSwap(m, n); m = maxRunning.Load() {
		}
		<-gate
		running.Add(-1)
		return Outcome{Valid: true, Tuple: in.Tuple(0).Clone()}
	}
	r := &countingReader{sliceReader: sliceReader{rows: rowsFor(keys...)}}
	w := &memWriter{}
	errc := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), testSchema, r, res, w, Options{Shards: workers, Sorted: true})
		errc <- err
	}()
	// Wait until both workers are parked and reading has stalled.
	deadline := time.Now().Add(10 * time.Second)
	for last := int64(-1); ; {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("engine did not stall: %d rows read, %d resolving", r.reads.Load(), running.Load())
		}
		time.Sleep(20 * time.Millisecond)
		n := r.reads.Load()
		if running.Load() == workers && n == last {
			break
		}
		last = n
	}
	// In sorted mode a row read means the group two rows back has been
	// dispatched (the previous group is still open), so reads-2 groups
	// are in flight while none has resolved.
	inFlight := r.reads.Load() - 2
	close(gate)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if inFlight > bound {
		t.Fatalf("%d groups in flight, bound is %d", inFlight, bound)
	}
	if inFlight < workers {
		t.Fatalf("only %d groups in flight: the workers were not both busy", inFlight)
	}
	if m := maxRunning.Load(); m > workers {
		t.Fatalf("%d resolutions ran at once on %d workers", m, workers)
	}
	if len(w.results) != len(keys) {
		t.Fatalf("wrote %d results, want %d", len(w.results), len(keys))
	}
}
