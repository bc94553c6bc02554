package encode

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"conflictres/internal/constraint"
	"conflictres/internal/fixtures"
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

// buildWith builds spec from the given compiled rules into fresh storage
// and returns the encoding and its digest (CNF text, instance→clause index,
// var→atom map).
func buildWith(r *Rules, spec *model.Spec) (*Encoding, string) {
	e := &Encoding{}
	e.init(r, spec)
	h := sha256.New()
	writeEncoding(h, e)
	return e, hex.EncodeToString(h.Sum(nil))
}

// fullScan is r with the Σ guard index disabled: every constraint counts as
// unguarded, so a build instantiates all of Σ.
func fullScan(r *Rules) *Rules {
	full := *r
	full.needHits = make([]int32, len(r.needHits))
	full.guardCons = make([][]int32, len(r.guardCons))
	return &full
}

// guardPool is the value pool of the guard differential test: strings,
// ints, floats equal to ints, a negative zero, NaN and null.
var guardPool = []relation.Value{
	relation.String("a"), relation.String("b"), relation.String("1"),
	relation.Int(0), relation.Int(1), relation.Int(2),
	relation.Float(1), relation.Float(2.5), relation.Float(math.Copysign(0, -1)),
	relation.Float(math.NaN()), relation.Null,
}

// randomGuardSpec builds a small specification whose currency constraints
// carry tᵢ[A] = c guards (constant on either side, on t1 or t2, sometimes
// repeated, several per constraint) over the pool's values, mixed with
// currency predicates and comparisons the index does not treat as guards.
// The data draws from part of the pool, so some guards match nothing.
func randomGuardSpec(rng *rand.Rand) *model.Spec {
	nAttrs := 2 + rng.Intn(2)
	names := make([]string, nAttrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	sch := relation.MustSchema(names...)
	dataPool := guardPool[:4+rng.Intn(len(guardPool)-3)]
	if rng.Intn(2) == 0 {
		dataPool = guardPool[rng.Intn(4):]
	}
	in := relation.NewInstance(sch)
	nTuples := 2 + rng.Intn(4)
	for i := 0; i < nTuples; i++ {
		tu := relation.NewTuple(sch)
		for a := range tu {
			tu[a] = dataPool[rng.Intn(len(dataPool))]
		}
		in.MustAdd(tu)
	}
	ti := model.NewTemporal(in)
	if rng.Intn(3) == 0 {
		ti.MustOrder(relation.Attr(rng.Intn(nAttrs)), 0, 1)
	}

	attr := func() relation.Attr { return relation.Attr(rng.Intn(nAttrs)) }
	tuple := func() constraint.TupleRef { return constraint.TupleRef(1 + rng.Intn(2)) }
	guardPred := func() constraint.Pred {
		l := constraint.AttrOperand(tuple(), attr())
		r := constraint.ConstOperand(guardPool[rng.Intn(len(guardPool))])
		if rng.Intn(2) == 0 {
			l, r = r, l
		}
		return constraint.ComparePred(l, constraint.OpEq, r)
	}
	var sigma []constraint.Currency
	for c := 1 + rng.Intn(8); c > 0; c-- {
		var body []constraint.Pred
		for p := rng.Intn(4); p > 0; p-- {
			switch rng.Intn(6) {
			case 0:
				body = append(body, constraint.CurrencyPred(attr()))
			case 1:
				a := attr()
				body = append(body, constraint.ComparePred(constraint.AttrOperand(constraint.T1, a),
					constraint.OpNe, constraint.AttrOperand(constraint.T2, a)))
			case 2:
				body = append(body, constraint.ComparePred(constraint.AttrOperand(tuple(), attr()),
					constraint.OpLe, constraint.ConstOperand(guardPool[rng.Intn(len(guardPool))])))
			default:
				body = append(body, guardPred())
			}
		}
		if len(body) > 0 && rng.Intn(4) == 0 {
			body = append(body, body[rng.Intn(len(body))]) // a repeated conjunct
		}
		sigma = append(sigma, constraint.Currency{Body: body, Target: attr()})
	}
	var gamma []constraint.CFD
	if x, b := attr(), attr(); x != b && rng.Intn(2) == 0 {
		gamma = append(gamma, constraint.CFD{
			X: []relation.Attr{x}, PX: []relation.Value{dataPool[0]}, B: b, VB: relation.String("z"),
		})
	}
	return model.NewSpec(ti, sigma, gamma)
}

// TestSigmaGuardIndexMatchesFullScan is the differential test of the Σ
// guard index: on seeded random specifications over strings, ints, floats,
// NaN and null, a build that instantiates only the constraints the index
// selects equals a build over all of Σ in CNF text, instance→clause index
// and var→atom map. It then drops, one per spec, a selected constraint
// that yields instances and requires the comparison to notice.
func TestSigmaGuardIndexMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	skipped, caught, hidden := 0, 0, 0
	for i := 0; i < 2000; i++ {
		spec := randomGuardSpec(rng)
		r := Compile(spec.Sigma, spec.Gamma, Options{})
		indexed, got := buildWith(r, spec)
		_, want := buildWith(fullScan(r), spec)
		if got != want {
			t.Fatalf("spec %d: indexed build differs from full scan\nsigma: %+v\ndata: %v",
				i, spec.Sigma, spec.TI.Inst)
		}
		skipped += len(spec.Sigma) - indexed.sigmaVisited

		// Mutation: drop one selected, guarded constraint that yields an
		// instance. The digest must change unless another constraint emits
		// the same instances (Σ dedup then hides the drop), so most drops
		// must be caught.
		for _, inst := range indexed.Omega {
			ci := inst.Src.Index
			if inst.Src.Kind != SrcCurrency || r.needHits[ci] == 0 {
				continue
			}
			drop := *r
			drop.needHits = slices.Clone(r.needHits)
			drop.needHits[ci] = neverFires
			if _, mutant := buildWith(&drop, spec); mutant != want {
				caught++
			} else {
				hidden++
			}
			break
		}
	}
	if skipped < 1000 || caught < 200 || hidden > caught/10 {
		t.Fatalf("weak sample: %d constraints skipped by the index; of the dropped constraints %d changed the digest, %d did not",
			skipped, caught, hidden)
	}
	t.Logf("%d constraints skipped by the index; %d dropped constraints caught, %d hidden by Σ dedup", skipped, caught, hidden)
}

// TestGammaUniquenessProof pins the compile-time proof that lets CFD
// instances skip deduplication. Two CFDs with the same consequent and
// disjoint X lists collide on an entity whose X values are all the
// patterns: both emit the same body-free instance, which Ω must hold once.
// Person's Γ (one AC per CFD) is provably collision-free, and dropping the
// dedup there or on random rule sets the proof accepts changes nothing.
func TestGammaUniquenessProof(t *testing.T) {
	sch := relation.MustSchema("A", "B", "C")
	pA, pC, vB := relation.String("pA"), relation.String("pC"), relation.String("vB")
	gamma := []constraint.CFD{
		{X: []relation.Attr{0}, PX: []relation.Value{pA}, B: 1, VB: vB},
		{X: []relation.Attr{2}, PX: []relation.Value{pC}, B: 1, VB: vB},
	}
	if !gammaMayCollide(gamma) {
		t.Fatal("X={A}/pA and X={C}/pC with the same (B, V_B): proof says unique, want may collide")
	}
	in := relation.NewInstance(sch)
	in.MustAdd(relation.Tuple{pA, relation.String("b1"), pC})
	in.MustAdd(relation.Tuple{pA, relation.String("b2"), pC})
	e := Build(model.NewSpec(model.NewTemporal(in), nil, gamma), Options{})
	heads := map[OrderLit]int{}
	for _, inst := range e.Omega {
		if inst.Src.Kind == SrcCFD {
			if len(inst.Body) != 0 {
				t.Fatalf("instance %+v: ωX should be empty", inst)
			}
			heads[inst.Head]++
		}
	}
	if len(heads) != 2 {
		t.Fatalf("CFD instance heads %v, want b1 and b2 below vB", heads)
	}
	for h, n := range heads {
		if n != 1 {
			t.Fatalf("instance with head %+v held %d times, want once", h, n)
		}
	}

	// A shared X attribute with different patterns keeps the bodies apart.
	apart := []constraint.CFD{
		{X: []relation.Attr{0, 2}, PX: []relation.Value{pA, pC}, B: 1, VB: vB},
		{X: []relation.Attr{2}, PX: []relation.Value{relation.String("other")}, B: 1, VB: vB},
	}
	if gammaMayCollide(apart) {
		t.Fatal("CFDs disagreeing on shared attribute C: proof says may collide, want unique")
	}
	if gammaMayCollide(goldenPerson(1)[0].Gamma) {
		t.Fatal("Person's Γ: proof says may collide, want unique")
	}

	// Forcing the dedup back on must not change any encoding the proof let
	// skip it.
	specs := goldenPerson(2)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 400; i++ {
		specs = append(specs, randomCFDSpec(rng))
	}
	unique := 0
	for i, spec := range specs {
		r := Compile(spec.Sigma, spec.Gamma, Options{})
		if !r.gammaUnique {
			continue
		}
		unique++
		deduped := *r
		deduped.gammaUnique = false
		_, got := buildWith(r, spec)
		if _, want := buildWith(&deduped, spec); got != want {
			t.Fatalf("spec %d: skipping Γ dedup changed the encoding", i)
		}
	}
	if unique < 100 {
		t.Fatalf("weak sample: only %d specs had a collision-free Γ", unique)
	}
}

// TestValidateSpecSkipsOnlyCoveredRules checks that a spec sharing a
// validated compiled rule set skips re-checking Σ and Γ but still reports
// instance errors, and that cloned or hand-built specs, and specs of an
// invalid rule set, get full validation with the same errors.
func TestValidateSpecSkipsOnlyCoveredRules(t *testing.T) {
	base := fixtures.EdithSpec()
	r := CompileFor(base.Schema(), base.Sigma, base.Gamma, Options{})
	if !r.covers(base) {
		t.Fatal("a spec sharing the compiled slices is not covered")
	}
	if r.covers(base.Clone()) {
		t.Fatal("a cloned spec (fresh slices) is covered")
	}
	if err := r.ValidateSpec(base); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	bad := model.NewSpec(base.TI.Clone(), base.Sigma, base.Gamma)
	bad.TI.Edges = append(bad.TI.Edges, model.OrderEdge{T1: 0, T2: 99})
	if got, want := r.ValidateSpec(bad), bad.Validate(); got == nil || got.Error() != want.Error() {
		t.Fatalf("covered spec with a bad edge: got %v, want %v", got, want)
	}

	gamma := append(slices.Clone(base.Gamma), constraint.CFD{
		X: []relation.Attr{0, 0}, PX: []relation.Value{relation.String("x"), relation.String("x")},
		B: 1, VB: relation.String("y"),
	})
	invalid := model.NewSpec(base.TI, base.Sigma, gamma)
	ri := CompileFor(invalid.Schema(), invalid.Sigma, invalid.Gamma, Options{})
	if ri.covers(invalid) {
		t.Fatal("a spec of an invalid rule set is covered")
	}
	if got, want := ri.ValidateSpec(invalid), invalid.Validate(); got == nil || got.Error() != want.Error() {
		t.Fatalf("invalid rule set: got %v, want %v", got, want)
	}
}
