package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric with its unit and better direction.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"entities_per_s", "1/s", "higher"},
	{"within_limit_share", "ratio", "higher"},
	{"serve_rss_peak_mb", "MiB", "lower"},
}

// perLayer are the metrics a traced run reports, on every workload; a layer
// a workload bypasses reads as its in-process replay or as 0.
var perLayer = []metricDef{
	{"conflictres.compile_ms", "ms", "lower"},
	{"conflictres.bind_us", "us", "lower"},
	{"encode.build_us", "us", "lower"},
	{"encode.clauses", "count", "lower"},
	{"encode.vars", "count", "lower"},
	{"encode.extend_us", "us", "lower"},
	{"sat.load_us", "us", "lower"},
	{"sat.solve_us", "us", "lower"},
	{"sat.propagations", "count", "lower"},
	{"sat.conflicts", "count", "lower"},
	{"sat.decisions", "count", "lower"},
	{"core.validity_us", "us", "lower"},
	{"core.deduce_us", "us", "lower"},
	{"core.suggest_us", "us", "lower"},
	{"core.solver_share", "ratio", "lower"},
	{"dataset.group_us_per_row", "us", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.cache_hit_share", "ratio", "higher"},
	{"server.pool_hit_share", "ratio", "higher"},
	{"server.session_clauses_loaded", "count", "lower"},
	{"live.upsert_us", "us", "lower"},
	{"live.extend_share", "ratio", "higher"},
	{"shard.hop_ms", "ms", "lower"},
	{"shard.merge_s", "s", "lower"},
	{"shard.retry_share", "ratio", "lower"},
	{"shard.replica_forwards", "count", "higher"},
	{"shard.replica_pending_max", "count", "lower"},
	{"loadgen.first_result_s", "s", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.trace_overhead", "ratio", "lower"},
	{"loadgen.failed_share", "ratio", "lower"},
	{"loadgen.request_p50_ms", "ms", "lower"},
	{"loadgen.request_p90_ms", "ms", "lower"},
	{"loadgen.batch_p50_ms", "ms", "lower"},
	{"loadgen.batch_p90_ms", "ms", "lower"},
	{"loadgen.upsert_p50_ms", "ms", "lower"},
	{"loadgen.upsert_p99_ms", "ms", "lower"},
	{"loadgen.get_p50_ms", "ms", "lower"},
	{"loadgen.get_p99_ms", "ms", "lower"},
	{"loadgen.session_round_p50_ms", "ms", "lower"},
	{"loadgen.session_round_p90_ms", "ms", "lower"},
}

// setupRuns is how many times a run sets the fleet up; setup_s is the median.
const setupRuns = 5

// clients bounds client connections and in-flight requests: the two vCPUs
// of the reference box.
const clients = 2

type config struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// bench is one run's shared state.
type bench struct {
	binDir string
	logDir string
	// client carries workload traffic: at most `clients` connections.
	client *http.Client
	// meta carries readiness probes, /metrics scrapes and post-window
	// checks, never concurrently with workload traffic except the replica
	// gauge sampler of a traced window.
	meta  *http.Client
	fleet *fleet
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.root, "root", ".", "repository checkout the binaries were built from")
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.IntVar(&cfg.seconds, "seconds", 15, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// run executes one benchmark run and returns its result line.
func run(cfg config) (*resultJSON, error) {
	ctx := context.Background()
	out := filepath.Join(cfg.root, ".bench_build")
	b := &bench{
		binDir: filepath.Join(out, "bin"),
		logDir: filepath.Join(out, "logs", fmt.Sprintf("%s-seed%d-trace%v", cfg.workload, cfg.seed, cfg.trace)),
		client: newClient(clients),
		meta:   newClient(4),
	}
	if err := os.MkdirAll(b.logDir, 0o755); err != nil {
		return nil, err
	}
	m := describeMachine(cfg.root)
	mj, _ := json.Marshal(m)
	fmt.Printf("machine: %s\n", mj)

	wl := workloads[cfg.workload]
	r, err := wl.prepare(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, fmt.Errorf("prepare inputs: %w", err)
	}

	defer b.stopFleet()
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		b.stopFleet()
		d, err := b.setUp(ctx, wl, r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	w0, err := r.window(ctx, b, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("measured window: %w", err)
	}
	rss, err := b.fleet.rssPeakMiB()
	if err != nil {
		return nil, err
	}
	var w1 *window
	var lay *layerReport
	var tr *tracer
	if cfg.trace {
		// The traced pass replays the same inputs on a fresh fleet, so
		// caches start as cold as they did for the untraced pass.
		b.stopFleet()
		if _, err := b.setUp(ctx, wl, r); err != nil {
			return nil, err
		}
		tr = newTracer()
		before, err := b.scrapeAll(ctx)
		if err != nil {
			return nil, err
		}
		sampler := b.sampleReplicaPending(ctx)
		w1, err = r.window(ctx, b, 1, tr)
		pendingMax := sampler()
		if err != nil {
			return nil, fmt.Errorf("traced window: %w", err)
		}
		after, err := b.scrapeAll(ctx)
		if err != nil {
			return nil, err
		}
		lay = newLayerReport()
		lay.serverDeltas(before, after, w1)
		lay.values["shard.replica_pending_max"] = pendingMax
		if err := r.probe(ctx, b, lay); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	b.stopFleet()

	// References run outside every measured window.
	for _, w := range []*window{w0, w1} {
		if w == nil {
			continue
		}
		if err := w.runChecks(); err != nil {
			return nil, fmt.Errorf("reference check: %w", err)
		}
	}

	res := &resultJSON{Metrics: map[string]metricJSON{}}
	for _, w := range []*window{w0, w1} {
		if w != nil {
			res.Attempted += w.attempted
			res.Failed += w.failed
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	w0.report("window")
	fmt.Printf("setup_s samples: %v\n", setups)
	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":            median(setups),
			"entities_per_s":     w0.entitiesPerSec(),
			"within_limit_share": w0.withinShare(),
			"serve_rss_peak_mb":  rss,
		}
		emit(res, endToEnd, vals, map[string]int{
			"setup_s":            len(setups),
			"entities_per_s":     len(w0.sliceEPS),
			"within_limit_share": w0.timed,
		})
		return res, nil
	}

	w1.report("traced window")
	if err := r.replay(tr, lay); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	lay.loadgen(w0, w1)
	times := tr.summarize()
	lay.fromSpans(times)
	printSpanTable(times)
	spanPath := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(spanPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %s\n", spanPath)
	emit(res, perLayer, lay.values, lay.samples)
	return res, nil
}

// setUp starts the workload's fleet, waits until every process is ready and
// sends the warm-up request: the span setup_s measures.
func (b *bench) setUp(ctx context.Context, wl workload, r runner) (time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(ctx, b.meta, b.binDir, b.logDir, wl.backends, wl.coordinator)
	if err != nil {
		return 0, err
	}
	b.fleet = f
	if err := r.warm(ctx, b); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(t0), nil
}

func (b *bench) stopFleet() {
	if b.fleet != nil {
		b.fleet.stop()
		b.fleet = nil
	}
}

// emit fills the result's metrics from vals, printing one line per metric
// with its unit, better direction and sample count where it has one.
func emit(res *resultJSON, defs []metricDef, vals map[string]float64, samples map[string]int) {
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		n := ""
		if s, ok := samples[d.name]; ok {
			n = fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Printf("metric %-32s %14.6g %-6s better=%s%s\n", d.name, v, d.unit, d.better, n)
	}
}

func printSpanTable(times map[string]layerTimes) {
	names := make([]string, 0, len(times))
	for n := range times {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-26s %8s %12s %12s %12s\n", "span", "calls", "total_ms", "self_ms", "mean_us")
	for _, n := range names {
		t := times[n]
		fmt.Printf("%-26s %8d %12.3f %12.3f %12.1f\n", n, t.Calls,
			float64(t.Total)/1e6, float64(t.Self)/1e6, float64(t.meanTotal())/1e3)
	}
}

// machineInfo identifies the host and the code a result was measured on.
type machineInfo struct {
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	SpinRatio2 float64 `json:"spin_ratio_2g"`
}

func describeMachine(root string) machineInfo {
	return machineInfo{
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     sourceID(root),
		SpinRatio2: spinRatio(),
	}
}
