package core

import (
	"math/rand"
	"reflect"
	"testing"

	"conflictres/internal/datagen"
	"conflictres/internal/encode"
	"conflictres/internal/fixtures"
	"conflictres/internal/model"
)

// comparableOutcome strips the non-deterministic bookkeeping (timings,
// solver counters) from an Outcome so pooled and unpooled runs can be
// compared field-for-field.
func comparableOutcome(o *Outcome) Outcome {
	cp := *o
	cp.Timing = Timing{}
	cp.Session = SessionStats{}
	return cp
}

// TestPipelineResolveMatchesStandalone runs a stream of specifications
// through ONE pipeline (so every build past the first reuses the skeleton's
// encoding storage and the Reset solver) and checks each outcome against the
// standalone session engine and the from-scratch baseline, interactive
// oracle included.
func TestPipelineResolveMatchesStandalone(t *testing.T) {
	check := func(t *testing.T, specs []*model.Spec, oracleFor func(i int) Oracle, p *Pipeline) {
		for i, spec := range specs {
			pooled, err := Resolve(spec.Clone(), oracleFor(i), Options{Pipeline: p})
			if err != nil {
				t.Fatalf("spec %d: pooled resolve: %v", i, err)
			}
			plain, err := Resolve(spec.Clone(), oracleFor(i), Options{})
			if err != nil {
				t.Fatalf("spec %d: plain resolve: %v", i, err)
			}
			scratch, err := Resolve(spec.Clone(), oracleFor(i), Options{FromScratch: true})
			if err != nil {
				t.Fatalf("spec %d: from-scratch resolve: %v", i, err)
			}
			po, pl, sc := comparableOutcome(pooled), comparableOutcome(plain), comparableOutcome(scratch)
			if !reflect.DeepEqual(po, pl) {
				t.Fatalf("spec %d: pooled outcome differs from plain session:\npooled:  %+v\nplain:   %+v", i, po, pl)
			}
			if !reflect.DeepEqual(po, sc) {
				t.Fatalf("spec %d: pooled outcome differs from from-scratch:\npooled:  %+v\nscratch: %+v", i, po, sc)
			}
		}
	}

	t.Run("fixtures", func(t *testing.T) {
		specs := []*model.Spec{fixtures.EdithSpec(), fixtures.GeorgeSpec(), fixtures.EdithSpec()}
		p := NewPipeline(encode.Compile(specs[0].Sigma, specs[0].Gamma, encode.Options{}))
		truths := []Oracle{
			&SimulatedUser{Truth: fixtures.EdithTruth(), MaxPerRound: 1},
			&SimulatedUser{Truth: fixtures.GeorgeTruth(), MaxPerRound: 1},
			&SimulatedUser{Truth: fixtures.EdithTruth(), MaxPerRound: 1},
		}
		check(t, specs, func(i int) Oracle { return truths[i] }, p)
		if builds, reuses := p.SkeletonStats(); reuses == 0 || builds < len(specs) {
			t.Fatalf("pipeline did not reuse its skeleton: builds=%d reuses=%d", builds, reuses)
		}
	})

	t.Run("datagen-interactive", func(t *testing.T) {
		ds := datagen.Person(datagen.PersonConfig{Entities: 8, MinTuples: 2, MaxTuples: 6, Seed: 99})
		if len(ds.Entities) == 0 {
			t.Fatal("datagen produced no entities")
		}
		first := ds.Entities[0].Spec
		p := NewPipeline(encode.Compile(first.Sigma, first.Gamma, encode.Options{}))
		var specs []*model.Spec
		for _, e := range ds.Entities {
			specs = append(specs, e.Spec)
		}
		check(t, specs, func(i int) Oracle {
			return &SimulatedUser{Truth: ds.Entities[i].Truth, MaxPerRound: 1}
		}, p)
	})

	t.Run("random-sweep", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20260726))
		base := randomSpec(rng)
		// Random specs share no rule set, so each gets its own pipeline —
		// the point here is the Reset/arena path over many shapes, plus the
		// one shared pipeline exercising the foreign-spec fallback.
		shared := NewPipeline(encode.Compile(base.Sigma, base.Gamma, encode.Options{}))
		for i := 0; i < 120; i++ {
			spec := randomSpec(rng)
			own := NewPipeline(encode.Compile(spec.Sigma, spec.Gamma, encode.Options{}))
			check(t, []*model.Spec{spec}, func(int) Oracle { return nil }, own)
			check(t, []*model.Spec{spec}, func(int) Oracle { return nil }, shared)
		}
	})
}

// TestPipelineValidityDeduceMatches covers the non-interactive service path
// (validity + deduction on one session) against the injected-solver one-shot
// variants, on reused pipelines.
func TestPipelineValidityDeduceMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	specs := []*model.Spec{fixtures.EdithSpec(), fixtures.GeorgeSpec()}
	for i := 0; i < 60; i++ {
		specs = append(specs, randomSpec(rng))
	}
	for i, spec := range specs {
		p := NewPipeline(encode.Compile(spec.Sigma, spec.Gamma, encode.Options{}))
		for round := 0; round < 2; round++ { // second round exercises reuse
			sess := p.NewSession(spec.Clone())
			gotValid, _ := sess.IsValid()
			enc := encode.Build(spec.Clone(), encode.Options{})
			wantValid, _ := IsValid(enc)
			if gotValid != wantValid {
				t.Fatalf("spec %d round %d: IsValid pooled=%v standalone=%v", i, round, gotValid, wantValid)
			}
			gotOd, gotOK := sess.DeduceOrder()
			wantOd, wantOK := DeduceOrder(enc)
			if gotOK != wantOK {
				t.Fatalf("spec %d round %d: DeduceOrder ok pooled=%v standalone=%v", i, round, gotOK, wantOK)
			}
			got, want := atomSet(sess.Encoding(), gotOd), atomSet(enc, wantOd)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spec %d round %d: derived orders differ: pooled %v standalone %v", i, round, got, want)
			}
		}
	}
}
