// Package dataset resolves whole relations: streams of rows that are
// grouped into entity instances by a key, resolved in parallel over a
// sharded worker pool, and written back out as one resolved tuple per
// entity. It is the dataset-scale entry point on top of the per-entity
// resolution core — the paper resolves one entity instance at a time; a
// production pipeline resolves files of millions of rows.
//
// The engine is deliberately agnostic about *how* an entity is resolved: a
// Resolver is injected by the caller. The public facade wires in compiled
// rule sets (conflictres.RuleSet), the HTTP server wires in its cache-aware
// resolution path, and tests wire in stubs. The engine owns the streaming
// concerns: bounded group-by windows, shard fan-out, back-pressure, result
// serialization and running statistics.
//
// Memory is bounded regardless of input size: at most Options.WindowRows
// rows are buffered in the grouper (plus the still-hot group carried across
// a flush, itself bounded by Options.MaxEntityRows), plus a constant number
// of in-flight groups per shard. Input that is clustered by key (each
// entity's rows contiguous, as produced by crgen) can set Options.Sorted to
// flush every entity as soon as its last row has passed, keeping residency
// at a single entity per shard. Unclustered input is still resolved
// correctly as long as each entity's rows fall inside one window: a window
// flush dispatches every pending group except the one that received the
// most recent row, so a contiguous run of one key is never split by the
// flush. Only a key whose rows are interleaved with enough other rows to
// span a flush resolves once per chunk (each chunk reported with its own
// row count); such keys are counted in Stats.SplitEntities and appear as
// duplicate keys in the output.
package dataset

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"conflictres/internal/core"
	"conflictres/internal/relation"
)

// Row is one input record: the entity key it belongs to, its tuple over the
// resolution schema, and the source that reported it (empty when the input
// carries no provenance column).
type Row struct {
	Key    string
	Tuple  relation.Tuple
	Source string
}

// RowReader yields rows until io.EOF. Readers are consumed by a single
// goroutine and need not be concurrency-safe.
type RowReader interface {
	Read() (Row, error)
}

// RowError locates a malformed input row. Readers wrap structural problems
// (ragged CSV rows, bad JSON lines, missing key columns) in it so pipelines
// can report the offending line rather than a bare parse error.
type RowError struct {
	Line int // 1-based input line (0 when unknown)
	Err  error
}

func (e *RowError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("dataset: row %d: %v", e.Line, e.Err)
	}
	return fmt.Sprintf("dataset: row: %v", e.Err)
}

func (e *RowError) Unwrap() error { return e.Err }

// Outcome is a resolver's verdict on one entity instance.
type Outcome struct {
	// Valid is false when the entity's specification has no valid
	// completion (a data outcome, not an error).
	Valid bool
	// Tuple is the resolved current tuple (null where undetermined).
	Tuple relation.Tuple
	// Resolved maps each determined attribute to its true value.
	Resolved map[relation.Attr]relation.Value
	// Timing aggregates the solver's per-phase time for this entity.
	Timing core.Timing
	// Cached marks an outcome served from a cache (set by cache-aware
	// resolvers such as the HTTP server's).
	Cached bool
	// Err reports a resolution failure; all other fields are then ignored.
	Err error
}

// Resolver resolves one grouped entity instance. Implementations are called
// concurrently from every shard and must be safe for concurrent use; one
// key is always resolved on the same shard, so per-key order is preserved.
type Resolver func(key string, in *relation.Instance) Outcome

// Result pairs an entity's outcome with its identity in the stream.
type Result struct {
	// Key is the entity key the rows were grouped under.
	Key string
	// Rows counts the input rows grouped into this entity (this window).
	Rows int
	Outcome
}

// Writer receives results in completion order (an arbitrary interleaving
// across shards; use Key to correlate). The engine calls it from a single
// goroutine and calls Flush exactly once, after the last Write.
type Writer interface {
	Write(*Result) error
	Flush() error
}

// Options tunes Run. The zero value is ready to use.
type Options struct {
	// Shards is the worker-pool width; 0 or negative means GOMAXPROCS.
	// Entities are assigned to shards by key hash, so a key's chunks
	// resolve in input order.
	Shards int
	// WindowRows bounds the rows buffered by the grouper before pending
	// groups are dispatched (default 65536). The group that received the
	// most recent row is carried across the flush so contiguous runs of one
	// key are never split; its residency is bounded by MaxEntityRows.
	WindowRows int
	// Sorted declares the input clustered by key: every key change
	// dispatches the finished group immediately, keeping memory at one
	// entity regardless of WindowRows.
	Sorted bool
	// MaxEntityRows rejects any entity that accumulates more rows than
	// this inside one window (default 10000; negative disables). Protects
	// the solver from degenerate groups — entity instances are expected to
	// hold a handful to a few hundred conflicting tuples, and cost grows
	// quickly with instance size.
	MaxEntityRows int
}

func (o Options) shards() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) windowRows() int {
	if o.WindowRows > 0 {
		return o.WindowRows
	}
	return 1 << 16
}

func (o Options) maxEntityRows() int {
	switch {
	case o.MaxEntityRows > 0:
		return o.MaxEntityRows
	case o.MaxEntityRows < 0:
		return int(^uint(0) >> 1)
	default:
		return 10000
	}
}

// Stats summarizes one Run. Counters are written by the engine's internal
// goroutines and must only be read after Run returns.
type Stats struct {
	// RowsRead counts input rows consumed.
	RowsRead int64
	// Entities counts groups dispatched to resolvers.
	Entities int64
	// Resolved counts entities that produced a valid resolution.
	Resolved int64
	// Invalid counts entities whose specification had no valid completion.
	Invalid int64
	// Failed counts entities whose resolution returned an error.
	Failed int64
	// Cached counts written results that were served from a resolver-side
	// cache (like the other outcome counters, it excludes Dropped results).
	Cached int64
	// Windows counts grouper flushes forced by the WindowRows bound that
	// actually dispatched at least one group.
	Windows int64
	// SplitEntities counts keys that were dispatched by a window flush and
	// later received more rows: each such key was resolved more than once,
	// each time from a partial instance. A non-zero count means the window
	// is too small for how far apart the input scatters a key's rows —
	// raise WindowRows or cluster the input by key. (Detection remembers
	// window-dispatched keys, one map entry per such key up to a fixed cap;
	// runs with no window flushes pay nothing, and splits past the cap may
	// be undercounted.)
	SplitEntities int64
	// Dropped counts results discarded after a writer failure: the work was
	// done but never reached the output, so Resolved/Invalid/Failed only
	// count results actually written and the stats reconcile with the
	// output file.
	Dropped int64
	// Timing sums solver phase time across all entities (exceeds Wall by
	// up to the shard count).
	Timing core.Timing
	// Wall is the end-to-end elapsed time.
	Wall time.Duration
}

// RowsPerSec is the end-to-end row throughput.
func (s *Stats) RowsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.RowsRead) / s.Wall.Seconds()
}

func (s *Stats) String() string {
	out := fmt.Sprintf("%d rows, %d entities (%d resolved, %d invalid, %d failed, %d cached) in %s (%.0f rows/s)",
		s.RowsRead, s.Entities, s.Resolved, s.Invalid, s.Failed, s.Cached,
		s.Wall.Round(time.Millisecond), s.RowsPerSec())
	if s.Dropped > 0 {
		out += fmt.Sprintf(", %d dropped", s.Dropped)
	}
	if s.SplitEntities > 0 {
		out += fmt.Sprintf(", %d split", s.SplitEntities)
	}
	return out
}

// group is one pending entity: its key and the rows buffered so far.
// sources parallels rows and is nil until a row arrives with provenance, so
// unsourced inputs pay nothing.
type group struct {
	key     string
	rows    []relation.Tuple
	sources []string
}

// addRow appends one row (and its source tag, if any) to the group.
func (g *group) addRow(t relation.Tuple, source string) {
	g.rows = append(g.rows, t)
	if source == "" && g.sources == nil {
		return
	}
	for len(g.sources) < len(g.rows)-1 {
		g.sources = append(g.sources, "")
	}
	g.sources = append(g.sources, source)
}

// maxSplitTrackedKeys caps the split-detection key set (see Run): enough
// for any sane window configuration, small enough that a hostile stream of
// distinct keys cannot balloon server memory through it.
const maxSplitTrackedKeys = 1 << 18

// Run streams rows from r, groups them by key, resolves every group with
// res across a sharded pool, and writes results to w. It returns the run's
// statistics along with the first fatal error (reader failure, writer
// failure, or context cancellation); per-entity resolution errors are not
// fatal — they are written as results with Err set and counted in
// Stats.Failed. On a fatal error the run stops promptly and drops the
// groups still buffered in the grouper: they may have been truncated by
// the failure, and a partial group written as a result would be
// indistinguishable from a complete one. Stats are valid even when err is
// non-nil.
func Run(ctx context.Context, sch *relation.Schema, r RowReader, res Resolver, w Writer, opts Options) (*Stats, error) {
	start := time.Now()
	stats := &Stats{}
	shards := opts.shards()
	maxRows := opts.maxEntityRows()

	// Shard channels are shallow: back-pressure from slow shards must reach
	// the reader quickly or window flushes would queue unbounded rows.
	shardCh := make([]chan *group, shards)
	for i := range shardCh {
		shardCh[i] = make(chan *group, 4)
	}
	results := make(chan *Result, 4*shards)

	// Shard workers: each drains its own channel so one key never resolves
	// concurrently with itself.
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		done := make(chan struct{})
		for _, ch := range shardCh {
			go func(ch chan *group) {
				defer func() { done <- struct{}{} }()
				for g := range ch {
					results <- resolveGroup(sch, res, g, maxRows)
				}
			}(ch)
		}
		for range shardCh {
			<-done
		}
		close(results)
	}()

	// Writer: the only goroutine touching w; aggregates outcome counters.
	// A write failure flips writeFailed so the reader stops feeding work
	// instead of resolving the rest of the input for discarded output.
	// Results completing after the failure are drained (so shards never
	// block forever) but counted in Dropped, not in the outcome counters:
	// Resolved/Invalid/Failed describe what the output file actually holds.
	var writeErr error
	var writeFailed atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for out := range results {
			stats.Entities++
			// Timing is work accounting — solver time was spent whether or
			// not the result reached the output — but every per-outcome
			// counter (Resolved/Invalid/Failed/Cached) describes only
			// written results, so they reconcile with the output file.
			stats.Timing.Add(out.Timing)
			if writeErr != nil {
				stats.Dropped++
				continue
			}
			if err := w.Write(out); err != nil {
				writeErr = err
				writeFailed.Store(true)
				stats.Dropped++ // the failed write never reached the output
				continue
			}
			if out.Cached {
				stats.Cached++
			}
			switch {
			case out.Err != nil:
				stats.Failed++
			case out.Valid:
				stats.Resolved++
			default:
				stats.Invalid++
			}
		}
	}()

	dispatch := func(g *group) {
		h := fnv.New32a()
		h.Write([]byte(g.key))
		shardCh[h.Sum32()%uint32(shards)] <- g
	}

	// Reader loop with windowed group-by.
	groups := make(map[string]*group)
	var order []*group // first-seen order, so flushes are deterministic
	buffered := 0
	var lastKey string
	var readErr error
	// windowSplit remembers keys dispatched by a window flush: a later row
	// for such a key means the entity was genuinely split across windows.
	// Tracking is capped at maxSplitTrackedKeys so a stream with enormous
	// key cardinality cannot grow the map without bound; beyond the cap
	// new splits go undetected (the counter is a diagnostic, not an audit).
	windowSplit := make(map[string]bool) // value: already counted
	for readErr == nil {
		if err := ctx.Err(); err != nil {
			readErr = err
			break
		}
		if writeFailed.Load() {
			break // the output is gone; resolving more input is wasted work
		}
		row, err := r.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				readErr = err
			}
			break
		}
		stats.RowsRead++
		if opts.Sorted && row.Key != lastKey {
			// The previous entity is complete (Sorted trusts clustering).
			// Input that is not actually clustered stays correct — the key
			// just resolves once per contiguous run of its rows.
			if g, ok := groups[lastKey]; ok {
				dispatch(g)
				delete(groups, lastKey)
				buffered -= len(g.rows)
				for i, og := range order {
					if og == g {
						order = append(order[:i], order[i+1:]...)
						break
					}
				}
			}
		}
		lastKey = row.Key
		g, ok := groups[row.Key]
		if !ok {
			g = &group{key: row.Key}
			groups[row.Key] = g
			order = append(order, g)
			if counted, split := windowSplit[row.Key]; split && !counted {
				// This key already went out in an earlier window: it is now
				// resolved more than once, each time from partial rows.
				stats.SplitEntities++
				windowSplit[row.Key] = true
			}
		}
		g.addRow(row.Tuple, row.Source)
		buffered++
		if buffered >= opts.windowRows() {
			// Flush every pending group except the one that received this
			// row: it is still hot, and dispatching it here would split a
			// contiguous run of its key across two partial resolutions.
			// Carrying it also preserves lastKey's meaning in Sorted mode —
			// the next row of the same key keeps extending the same group.
			// A hot group already past the MaxEntityRows reject limit is
			// dispatched anyway (resolveGroup will refuse it with a clear
			// error either way), keeping grouper memory bounded by
			// WindowRows + MaxEntityRows even for one endless key.
			keepHot := len(g.rows) <= maxRows
			dispatched := false
			for _, og := range order {
				if keepHot && og == g {
					continue
				}
				dispatch(og)
				if _, seen := windowSplit[og.key]; !seen && len(windowSplit) < maxSplitTrackedKeys {
					windowSplit[og.key] = false
				}
				dispatched = true
			}
			if dispatched {
				stats.Windows++
			}
			clear(groups)
			order = order[:0]
			buffered = 0
			if keepHot {
				groups[g.key] = g
				order = append(order, g)
				buffered = len(g.rows)
			}
		}
	}
	// Flush the tail — only on a clean end of input. After a cancellation,
	// a reader error or a write failure the buffered groups are dropped:
	// resolving them would burn solver time after the caller asked to stop,
	// and an error-truncated group would otherwise be written as a normal-
	// looking result computed from part of its rows.
	if ctx.Err() == nil && readErr == nil && !writeFailed.Load() {
		for _, g := range order {
			dispatch(g)
		}
	}
	for _, ch := range shardCh {
		close(ch)
	}
	<-workersDone
	<-writerDone

	err := readErr
	if err == nil {
		err = writeErr
	}
	if flushErr := w.Flush(); err == nil {
		err = flushErr
	}
	stats.Wall = time.Since(start)
	return stats, err
}

// resolveGroup materializes one group as an entity instance and resolves it.
func resolveGroup(sch *relation.Schema, res Resolver, g *group, maxRows int) *Result {
	out := &Result{Key: g.key, Rows: len(g.rows)}
	if len(g.rows) > maxRows {
		out.Err = fmt.Errorf("dataset: entity %q has %d rows, limit %d (raise MaxEntityRows)", g.key, len(g.rows), maxRows)
		return out
	}
	in := relation.NewInstance(sch)
	for i, t := range g.rows {
		src := ""
		if i < len(g.sources) {
			src = g.sources[i]
		}
		if _, err := in.AddSourced(t, src); err != nil {
			out.Err = err
			return out
		}
	}
	out.Outcome = res(g.key, in)
	return out
}
