package main

import (
	"reflect"
	"testing"
)

// countMetrics are the per-layer metrics that count work rather than time
// it: they depend only on the inputs, so they must repeat exactly.
var countMetrics = []string{
	"encode.clauses", "encode.vars", "sat.propagations", "sat.conflicts", "sat.decisions", "live.extend_share",
}

// replayCounts prepares a workload's inputs under seed and replays them
// in-process, returning the count metrics.
func replayCounts(t *testing.T, workload string, seed int64) []float64 {
	t.Helper()
	r, err := workloads[workload].prepare(seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	lay := newLayerReport()
	if err := r.replay(nil, lay); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(countMetrics))
	for i, m := range countMetrics {
		v, ok := lay.values[m]
		if !ok {
			t.Fatalf("%s: replay did not report %s", workload, m)
		}
		out[i] = v
	}
	return out
}

func TestCountMetricsRepeatUnderOneSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("replays whole workloads")
	}
	for _, w := range []string{"dataset-person", "fleet-batch-nba"} {
		t.Run(w, func(t *testing.T) {
			a := replayCounts(t, w, 1)
			b := replayCounts(t, w, 1)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("seed 1 twice: %v then %v (%v)", a, b, countMetrics)
			}
			if c := replayCounts(t, w, 2); reflect.DeepEqual(a, c) {
				t.Errorf("seeds 1 and 2 gave the same counts %v", a)
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	got := tr.summarize()
	// Children cover [10,60] and [90,100] of the root: 60 of its 100.
	if s := got["root"].Self; s != 40 {
		t.Errorf("root self time %d, want 40", s)
	}
	if s := got["a"].Self; s != 30 {
		t.Errorf("leaf self time %d, want 30", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
