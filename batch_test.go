package conflictres

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conflictres/internal/constraint"
	"conflictres/internal/datagen"
)

// batchSchema and batchRules are the Edith running example generalized to a
// fleet of entities sharing one schema and one constraint set.
func batchSchema() *Schema {
	return MustSchema("name", "status", "job", "kids", "city", "AC", "zip", "county")
}

func batchRuleTexts() (currency, cfds []string) {
	return []string{
			`t1[status] = "working" & t2[status] = "retired" -> t1 <[status] t2`,
			`t1[status] = "retired" & t2[status] = "deceased" -> t1 <[status] t2`,
			`t1[kids] < t2[kids] -> t1 <[kids] t2`,
			`t1 <[status] t2 -> t1 <[job] t2`,
			`t1 <[status] t2 -> t1 <[AC] t2`,
			`t1 <[status] t2 -> t1 <[zip] t2`,
			`t1 <[city] t2 & t1 <[zip] t2 -> t1 <[county] t2`,
		}, []string{
			`AC = "213" => city = "LA"`,
			`AC = "212" => city = "NY"`,
		}
}

func batchRules(t testing.TB) *RuleSet {
	t.Helper()
	currency, cfds := batchRuleTexts()
	rs, err := CompileRules(batchSchema(), currency, cfds)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// batchInstance builds entity #i over the batch schema; every instance is a
// valid specification resolving to status=deceased, city=LA.
func batchInstance(sch *Schema, i int) *Instance {
	name := fmt.Sprintf("Edith %d", i)
	kids := int64(i % 4)
	in := NewInstance(sch)
	in.MustAdd(Tuple{String(name), String("working"), String("nurse"), Int(kids),
		String("NY"), String("212"), String("10036"), String("Manhattan")})
	in.MustAdd(Tuple{String(name), String("retired"), String("n/a"), Int(kids + 3),
		String("SFC"), String("415"), String("94924"), String("Dogtown")})
	in.MustAdd(Tuple{String(name), String("deceased"), String("n/a"), Null,
		String("LA"), String("213"), String("90058"), String("Vermont")})
	return in
}

func batchInstances(sch *Schema, n int) []*Instance {
	out := make([]*Instance, n)
	for i := range out {
		out[i] = batchInstance(sch, i)
	}
	return out
}

func TestCompileRulesParsesEachTextOnce(t *testing.T) {
	currency, cfds := batchRuleTexts()
	before := constraint.ParseCalls()
	rs, err := CompileRules(batchSchema(), currency, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := constraint.ParseCalls()-before, int64(len(currency)+len(cfds)); got != want {
		t.Fatalf("CompileRules made %d parser calls, want %d", got, want)
	}

	// Binding and resolving any number of entities must not re-parse.
	mark := constraint.ParseCalls()
	br, err := ResolveBatch(rs, batchInstances(rs.Schema(), 16), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if br.Resolved != 16 {
		t.Fatalf("Resolved = %d, want 16", br.Resolved)
	}
	if got := constraint.ParseCalls() - mark; got != 0 {
		t.Fatalf("resolving 16 entities re-parsed constraints %d times, want 0", got)
	}
}

func TestCompileRulesRejectsBadTexts(t *testing.T) {
	sch := batchSchema()
	if _, err := CompileRules(sch, []string{`t1[bogus] = "x" -> t1 <[status] t2`}, nil); err == nil {
		t.Error("unknown attribute in currency constraint must fail")
	}
	if _, err := CompileRules(sch, nil, []string{`AC = "1" => nope = "2"`}); err == nil {
		t.Error("unknown attribute in CFD must fail")
	}
	if _, err := CompileRules(nil, nil, nil); err == nil {
		t.Error("nil schema must fail")
	}
}

func TestNewSpecFromRulesSchemaMismatch(t *testing.T) {
	rs := batchRules(t)
	in := NewInstance(MustSchema("name", "status"))
	in.MustAdd(Tuple{String("x"), String("working")})
	if _, err := NewSpecFromRules(in, rs); err == nil {
		t.Fatal("mismatched schema must fail")
	}
	// Same names, same order, different *Schema value: must bind.
	in2 := NewInstance(MustSchema(rs.Schema().Names()...))
	in2.MustAdd(Tuple{String("y"), String("working"), String("nurse"), Int(1),
		String("NY"), String("212"), String("10036"), String("Manhattan")})
	if _, err := NewSpecFromRules(in2, rs); err != nil {
		t.Fatalf("structurally equal schema rejected: %v", err)
	}
}

func TestResolveBatchMatchesSequential(t *testing.T) {
	rs := batchRules(t)
	instances := batchInstances(rs.Schema(), 12)
	br, err := ResolveBatch(rs, instances, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if br.Resolved != len(instances) || br.Failed != 0 {
		t.Fatalf("Resolved=%d Failed=%d, want %d/0", br.Resolved, br.Failed, len(instances))
	}
	for i, in := range instances {
		spec, err := NewSpecFromRules(in, rs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Resolve(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := br.Results[i]
		if got == nil {
			t.Fatalf("entity %d: nil result, err=%v", i, br.Errs[i])
		}
		if got.Valid != want.Valid || !got.Tuple.Equal(want.Tuple) {
			t.Errorf("entity %d: batch %v %s, sequential %v %s",
				i, got.Valid, got.Tuple, want.Valid, want.Tuple)
		}
		if got.Value("city") != "LA" || got.Value("status") != "deceased" {
			t.Errorf("entity %d resolved to %s", i, got.Tuple)
		}
	}
	if br.Timing.Total() <= 0 {
		t.Error("batch timing must aggregate per-phase durations")
	}
	if br.Wall <= 0 {
		t.Error("batch wall time must be positive")
	}
}

func TestResolveBatchReportsPerEntityErrors(t *testing.T) {
	rs := batchRules(t)
	good := batchInstance(rs.Schema(), 0)
	empty := NewInstance(rs.Schema()) // no tuples: binding fails validation
	wrong := NewInstance(MustSchema("a", "b"))
	wrong.MustAdd(Tuple{String("x"), String("y")})

	br, err := ResolveBatch(rs, []*Instance{good, empty, wrong}, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if br.Resolved != 1 || br.Failed != 2 {
		t.Fatalf("Resolved=%d Failed=%d, want 1/2", br.Resolved, br.Failed)
	}
	if br.Results[0] == nil || br.Errs[0] != nil {
		t.Errorf("entity 0 must succeed: %v", br.Errs[0])
	}
	if br.Errs[1] == nil || br.Results[1] != nil {
		t.Error("empty instance must fail")
	}
	if br.Errs[2] == nil || !strings.Contains(br.Errs[2].Error(), "schema") {
		t.Errorf("schema mismatch error missing, got %v", br.Errs[2])
	}
}

// spinTime times workers goroutines each running iters steps of a pure ALU
// loop. One goroutine over procs shares against procs goroutines over one
// share each gives the wall-clock speedup the machine itself offers:
// GOMAXPROCS counts vCPUs, which may share physical cores, be throttled or
// be busy with other processes, so that ratio, not GOMAXPROCS, bounds any
// parallel speedup.
func spinTime(workers, iters int) time.Duration {
	var sink atomic.Uint64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(w)
			for i := 0; i < iters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			sink.Add(x)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// TestResolveBatchParallelSpeedup checks that the worker pool beats the
// sequential loop in wall time by 1.3x. Wall time on a shared machine is
// noisy, and under `go test ./...` another package's test binary holds a
// vCPU most of the time, so each round times a sequential batch, a parallel
// batch and both sides of a spin loop, and the test compares the fastest
// run of each side. It passes once, after at least minRounds rounds, the
// fastest parallel batch is 1.3x faster than the fastest sequential one. If
// that has not happened within budget, the spin loop decides: the test
// skips with the measured times when GOMAXPROCS goroutines could not reach
// 1.3x either, and fails otherwise. BenchmarkResolveBatch reports the same
// comparison as entities/s.
func TestResolveBatchParallelSpeedup(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skipf("GOMAXPROCS=%d: no parallelism available", procs)
	}
	if testing.Short() {
		t.Skip("skipping timing-sensitive test in -short mode")
	}
	const (
		bar       = 1.3
		minRounds = 10
		budget    = 20 * time.Second
		share     = 1 << 20
	)
	rs := batchRules(t)
	instances := batchInstances(rs.Schema(), 96)
	batchTime := func(workers int) time.Duration {
		br, err := ResolveBatch(rs, instances, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return br.Wall
	}
	const never = time.Duration(1<<62 - 1)
	seq, par, spinSeq, spinPar := never, never, never, never
	rounds := 0
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); {
		rounds++
		seq = min(seq, batchTime(1))
		par = min(par, batchTime(procs))
		spinSeq = min(spinSeq, spinTime(1, procs*share))
		spinPar = min(spinPar, spinTime(procs, share))
		if rounds >= minRounds && float64(seq) >= bar*float64(par) {
			break
		}
	}
	t.Logf("%d rounds: sequential %v, %d workers %v (%.2fx); spin loop %v on one goroutine, %v on %d (%.2fx)",
		rounds, seq, procs, par, float64(seq)/float64(par), spinSeq, spinPar, procs, float64(spinSeq)/float64(spinPar))
	if float64(seq) >= bar*float64(par) {
		return
	}
	if float64(spinSeq) < bar*float64(spinPar) {
		t.Skipf("machine ceiling %.2fx over %d rounds: a spin loop took %v on one goroutine and %v on %d",
			float64(spinSeq)/float64(spinPar), rounds, spinSeq, spinPar, procs)
	}
	t.Errorf("no parallel speedup over %d rounds: sequential %v vs %d workers %v, with the machine at %.2fx",
		rounds, seq, procs, par, float64(spinSeq)/float64(spinPar))
}

// TestResolveBatchRace hammers one shared rule set from many goroutines so
// `go test -race` can observe any unsynchronized state in the compiled rules
// or the worker pool.
// TestResolveBatchPhasesCoverWall pins the per-phase breakdown: on one
// worker, encode, load, validity, deduce and suggest together account for at
// least 90% of the batch's wall time, so no dominant cost goes unreported.
func TestResolveBatchPhasesCoverWall(t *testing.T) {
	ds := datagen.Person(datagen.PersonConfig{Entities: 8, MinTuples: 2, MaxTuples: 8, Seed: 1})
	rs := &RuleSet{schema: ds.Schema, sigma: ds.Sigma, gamma: ds.Gamma}
	instances := make([]*Instance, len(ds.Entities))
	for i, e := range ds.Entities {
		instances[i] = e.Spec.TI.Inst
	}
	br, err := ResolveBatch(rs, instances, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if br.Resolved != len(instances) {
		t.Fatalf("resolved %d of %d", br.Resolved, len(instances))
	}
	tm := br.Timing
	t.Logf("wall %v: encode %v, load %v, validity %v, deduce %v, suggest %v",
		br.Wall, tm.Encode, tm.Load, tm.Validity, tm.Deduce, tm.Suggest)
	if tm.Encode <= 0 || tm.Load <= 0 {
		t.Fatalf("encode and load not timed: %+v", tm)
	}
	if share := float64(tm.Total()) / float64(br.Wall); share < 0.9 {
		t.Fatalf("phases cover %.0f%% of wall time, want >= 90%%", 100*share)
	}
}

func TestResolveBatchRace(t *testing.T) {
	rs := batchRules(t)
	instances := batchInstances(rs.Schema(), 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			br, err := ResolveBatch(rs, instances, BatchOptions{Workers: 3})
			if err != nil {
				t.Error(err)
				return
			}
			if br.Resolved != len(instances) {
				t.Errorf("Resolved = %d, want %d", br.Resolved, len(instances))
			}
		}()
	}
	wg.Wait()
}
