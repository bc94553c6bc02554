package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"conflictres"
	"conflictres/internal/core"
	"conflictres/internal/datagen"
	"conflictres/internal/dataset"
	"conflictres/internal/encode"
	"conflictres/internal/live"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// Replay sizes: how many of the run's entities go through the
// pipeline layers one by one, and how many are fed row by row through the
// live and incremental-encoding layers. Fixed counts keep the count metrics
// exactly repeatable under one seed.
const (
	replayEntities = 16
	replayFeeds    = 4
	compileRepeats = 5
)

// layerReport accumulates the per-layer metrics of a traced run.
type layerReport struct {
	values  map[string]float64
	samples map[string]int
}

func newLayerReport() *layerReport {
	return &layerReport{values: map[string]float64{}, samples: map[string]int{}}
}

// replayLayers drives entities through each layer's public entry points
// in-process, in the order the resolve pipeline calls them, recording a
// span around every call and the deterministic work counts.
func replayLayers(tr *tracer, lay *layerReport, rs *conflictres.RuleSet, ents []*datagen.Entity, columns []string) error {
	for i := 0; i < compileRepeats; i++ {
		var err error
		tr.do("conflictres.compile", 0, 0, func(int64) {
			_, err = conflictres.CompileRules(rs.Schema(), rs.CurrencyTexts(), rs.CFDTexts())
		})
		if err != nil {
			return err
		}
	}
	if err := replayPipeline(tr, lay, rs, ents[:min(replayEntities, len(ents))]); err != nil {
		return err
	}
	feeds := ents[:min(replayFeeds, len(ents))]
	if err := replayLive(tr, lay, rs, feeds); err != nil {
		return err
	}
	if err := replayExtend(tr, rs, feeds); err != nil {
		return err
	}
	return replayGrouping(tr, lay, rs.Schema(), ents, columns)
}

// replayPipeline binds, encodes, loads, deduces, checks validity and
// suggests for each entity on one reused skeleton and solver, as a pooled
// resolve pipeline does.
func replayPipeline(tr *tracer, lay *layerReport, rs *conflictres.RuleSet, ents []*datagen.Entity) error {
	var skel *encode.Skeleton
	solver := sat.New()
	var clauses, vars int
	var props, confl, decs int64
	for i, e := range ents {
		req := int64(i + 1)
		var err error
		tr.do("replay.entity", 0, req, func(root int64) {
			var spec *conflictres.Spec
			tr.do("conflictres.bind", root, req, func(int64) {
				spec, err = conflictres.NewSpecFromRules(e.Spec.TI.Inst, rs)
			})
			if err != nil {
				return
			}
			m := spec.Model()
			if skel == nil {
				skel = encode.NewSkeleton(m.Sigma, m.Gamma, encode.Options{})
			}
			var enc *encode.Encoding
			tr.do("encode.build", root, req, func(int64) { enc = skel.Build(m) })
			cnf := enc.CNF()
			clauses += len(cnf.Clauses)
			vars += enc.NumVars()
			st0 := solver.Stats
			tr.do("sat.load", root, req, func(int64) {
				solver.Reset()
				cnf.AppendInto(solver, 0)
			})
			// The order is read off the level-0 trail before any search:
			// the exact Fig. 5 fixpoint a pipeline session deduces from.
			var od *core.OrderSet
			var resolved map[relation.Attr]relation.Value
			tr.do("core.deduce", root, req, func(int64) {
				od, _ = core.DeduceOrderWith(enc, solver)
				resolved = core.TrueValues(enc, od)
			})
			valid := false
			tr.do("core.validity", root, req, func(id int64) {
				if !solver.Okay() {
					return
				}
				tr.do("sat.solve", id, req, func(int64) { valid = solver.Solve() == sat.StatusSat })
				if valid {
					_ = solver.Model()
				}
			})
			props += solver.Stats.Propagations - st0.Propagations
			confl += solver.Stats.Conflicts - st0.Conflicts
			decs += solver.Stats.Decisions - st0.Decisions
			if valid && len(resolved) < m.Schema().Len() {
				tr.do("core.suggest", root, req, func(int64) { core.Suggest(enc, od, resolved) })
			}
		})
		if err != nil {
			return fmt.Errorf("bind entity %s: %w", e.ID, err)
		}
	}
	n := float64(len(ents))
	lay.values["encode.clauses"] = float64(clauses) / n
	lay.values["encode.vars"] = float64(vars) / n
	lay.values["sat.propagations"] = float64(props) / n
	lay.values["sat.conflicts"] = float64(confl) / n
	lay.values["sat.decisions"] = float64(decs) / n
	for _, k := range []string{"encode.clauses", "encode.vars", "sat.propagations", "sat.conflicts", "sat.decisions"} {
		lay.samples[k] = len(ents)
	}
	return nil
}

// replayLive feeds each entity's rows one at a time into an in-process live
// registry, as the change-data-capture endpoint does.
func replayLive(tr *tracer, lay *layerReport, rs *conflictres.RuleSet, ents []*datagen.Entity) error {
	reg := live.NewRegistry(0, 0)
	defer reg.Close()
	for i, e := range ents {
		key := fmt.Sprintf("replay-%d", i)
		for _, row := range rowsOf(e) {
			var err error
			tr.do("live.upsert", 0, int64(i+1), func(int64) {
				_, err = reg.Upsert(key, rs, "perfbench", live.Op{Rows: []relation.Tuple{row}})
			})
			if err != nil {
				return fmt.Errorf("live upsert %s: %w", key, err)
			}
		}
	}
	c := reg.CountersSnapshot()
	lay.values["live.extend_share"] = ratio(float64(c.Extends), float64(c.Extends+c.Rebuilds))
	lay.samples["live.extend_share"] = int(c.Extends + c.Rebuilds)
	return nil
}

// replayExtend grows each entity's encoding one row at a time with
// ExtendRows, re-encoding where the delta is not monotone.
func replayExtend(tr *tracer, rs *conflictres.RuleSet, ents []*datagen.Entity) error {
	for i, e := range ents {
		rows := rowsOf(e)
		in, err := instanceOf(rs.Schema(), rows[:1])
		if err != nil {
			return err
		}
		spec, err := conflictres.NewSpecFromRules(in, rs)
		if err != nil {
			return err
		}
		enc := encode.Build(spec.Model(), encode.Options{})
		for k := 1; k < len(rows); k++ {
			ok := false
			tr.do("encode.extend", 0, int64(i+1), func(int64) { ok = enc.ExtendRows(rows[k:k+1], nil) })
			if !ok {
				tr.do("encode.rebuild", 0, int64(i+1), func(int64) { enc = encode.Build(enc.Spec, encode.Options{}) })
			}
		}
	}
	return nil
}

type discardWriter struct{}

func (discardWriter) Write(*dataset.Result) error { return nil }
func (discardWriter) Flush() error                { return nil }

// replayGrouping runs the dataset engine over the entities' rows with a
// resolver that does nothing: the cost of parsing and grouping alone.
func replayGrouping(tr *tracer, lay *layerReport, sch *relation.Schema, ents []*datagen.Entity, columns []string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	rows := 0
	for _, e := range ents {
		for _, t := range rowsOf(e) {
			if err := enc.Encode(append([]any{e.ID}, wireRow(t)...)); err != nil {
				return err
			}
			rows++
		}
	}
	cols := append([]string{"entity"}, columns...)
	rd, err := dataset.NewNDJSONArrayReader(&buf, sch, cols, []string{"entity"})
	if err != nil {
		return err
	}
	noop := func(string, *relation.Instance) dataset.Outcome { return dataset.Outcome{} }
	var runErr error
	t0 := time.Now()
	tr.do("dataset.run", 0, 0, func(int64) {
		_, runErr = dataset.Run(context.Background(), sch, rd, noop, discardWriter{}, dataset.Options{Sorted: true})
	})
	if runErr != nil {
		return runErr
	}
	lay.values["dataset.group_us_per_row"] = float64(time.Since(t0).Microseconds()) / float64(max(rows, 1))
	lay.samples["dataset.group_us_per_row"] = rows
	return nil
}

// probeSettle lets asynchronous work the probe requests started, such as
// replica forwards, finish before the in-process side is timed, so the
// two sides do not share the CPUs.
const probeSettle = 300 * time.Millisecond

// timeEach times fn on each input in-process, after the fleet has settled
// and after one untimed call that warms the in-process pipeline pools the
// way the servers' already are.
func timeEach[T any](inputs []T, fn func(T) error) ([]time.Duration, error) {
	time.Sleep(probeSettle)
	if err := fn(inputs[0]); err != nil {
		return nil, err
	}
	out := make([]time.Duration, 0, len(inputs))
	for _, in := range inputs {
		t0 := time.Now()
		if err := fn(in); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// overhead records server.overhead_ms: the median client time of the probe
// requests minus the median in-process time of the same work.
func (lay *layerReport) overhead(client, local []time.Duration) {
	lay.values["server.overhead_ms"] = median(ms(client)) - median(ms(local))
	lay.samples["server.overhead_ms"] = len(client)
}

// fromSpans turns the span summary into the per-call layer times.
func (lay *layerReport) fromSpans(times map[string]layerTimes) {
	us := func(name string) float64 { return float64(times[name].meanTotal()) / 1e3 }
	for metric, span := range map[string]string{
		"conflictres.bind_us": "conflictres.bind",
		"encode.build_us":     "encode.build",
		"encode.extend_us":    "encode.extend",
		"sat.load_us":         "sat.load",
		"sat.solve_us":        "sat.solve",
		"core.validity_us":    "core.validity",
		"core.deduce_us":      "core.deduce",
		"core.suggest_us":     "core.suggest",
		"live.upsert_us":      "live.upsert",
	} {
		lay.values[metric] = us(span)
		lay.samples[metric] = times[span].Calls
	}
	lay.values["conflictres.compile_ms"] = us("conflictres.compile") / 1e3
	lay.samples["conflictres.compile_ms"] = times["conflictres.compile"].Calls
	solver := times["core.validity"].Total + times["core.deduce"].Total + times["core.suggest"].Total
	lay.values["core.solver_share"] = ratio(float64(solver), float64(times["replay.entity"].Total))
}

// serverDeltas derives the server-side layer metrics from /metrics scrapes
// taken before and after the traced window.
func (lay *layerReport) serverDeltas(before, after []map[string]float64, w *window) {
	d := func(name string) float64 { return sumPrefix(after, name) - sumPrefix(before, name) }
	hits, misses := d("crserve_cache_hits_total"), d("crserve_cache_misses_total")
	lay.values["server.cache_hit_share"] = ratio(hits, hits+misses)
	ph, pm := d("crserve_pool_hits_total"), d("crserve_pool_misses_total")
	lay.values["server.pool_hit_share"] = ratio(ph, ph+pm)
	lay.values["server.session_clauses_loaded"] = ratio(d("crserve_session_clauses_loaded_total"), float64(w.results))
	lay.values["shard.merge_s"] = ratio(d("crshard_merge_seconds_total"), d("crshard_requests_total"))
	lay.values["shard.retry_share"] = ratio(d("crshard_backend_retries_total"), d("crshard_backend_requests_total"))
	lay.values["shard.replica_forwards"] = d("crshard_replica_forwards_total")
	ext, reb := d("crserve_live_extends_total"), d("crserve_live_rebuilds_total")
	fmt.Printf("traced window server counters: cache %.0f/%.0f hits, pool %.0f/%.0f hits, live %.0f extends %.0f rebuilds, replica forwards %.0f\n",
		hits, hits+misses, ph, ph+pm, ext, reb, lay.values["shard.replica_forwards"])
}

// loadgen derives the generator's own metrics from the untraced (w0) and
// traced (w1) windows of a traced run.
func (lay *layerReport) loadgen(w0, w1 *window) {
	lay.values["loadgen.first_result_s"] = median(ms(w1.firstResult)) / 1000
	lay.samples["loadgen.first_result_s"] = len(w1.firstResult)
	lay.values["loadgen.late_p99_ms"] = quantile(ms(w1.late), 0.99)
	lay.samples["loadgen.late_p99_ms"] = len(w1.late)
	if w1.openLoop {
		// Throughput is fixed by the schedule; latency moves.
		lay.values["loadgen.trace_overhead"] = ratio(w1.latencyMs(0.5), w0.latencyMs(0.5)) - 1
	} else {
		lay.values["loadgen.trace_overhead"] = ratio(w0.entitiesPerSec(), w1.entitiesPerSec()) - 1
	}
	lay.values["loadgen.request_p50_ms"] = w1.latencyMs(0.5)
	lay.values["loadgen.request_p90_ms"] = w1.latencyMs(0.9)
	lay.samples["loadgen.request_p50_ms"] = len(w1.reqs)
	lay.samples["loadgen.request_p90_ms"] = len(w1.reqs)
	lay.values["loadgen.failed_share"] = ratio(float64(w1.failed), float64(w1.attempted))
	lay.samples["loadgen.failed_share"] = w1.attempted
	for _, k := range []struct {
		kind string
		q    float64
		name string
	}{
		{"batch", 0.5, "loadgen.batch_p50_ms"}, {"batch", 0.9, "loadgen.batch_p90_ms"},
		{"upsert", 0.5, "loadgen.upsert_p50_ms"}, {"upsert", 0.99, "loadgen.upsert_p99_ms"},
		{"get", 0.5, "loadgen.get_p50_ms"}, {"get", 0.99, "loadgen.get_p99_ms"},
		{"session_round", 0.5, "loadgen.session_round_p50_ms"}, {"session_round", 0.9, "loadgen.session_round_p90_ms"},
	} {
		lay.values[k.name] = quantile(ms(w1.kinds[k.kind]), k.q)
		lay.samples[k.name] = len(w1.kinds[k.kind])
	}
}

// scrapeAll fetches /metrics from every server of the fleet.
func (b *bench) scrapeAll(ctx context.Context) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, p := range b.fleet.servers() {
		m, err := scrape(ctx, b.meta, p)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// sampleReplicaPending polls the coordinator's replication backlog gauge
// until the returned function is called, which stops the sampler and
// returns the highest value seen.
func (b *bench) sampleReplicaPending(ctx context.Context) func() float64 {
	if b.fleet.coord == nil {
		return func() float64 { return 0 }
	}
	stop := make(chan struct{})
	done := make(chan float64, 1)
	go func() {
		peak := 0.0
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
				if m, err := scrape(ctx, b.meta, b.fleet.coord); err == nil {
					peak = max(peak, m["crshard_replica_pending"])
				}
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}
