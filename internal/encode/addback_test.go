package encode

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"conflictres/internal/constraint"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// addBackDropped appends to e, through EnsureLit, the axioms the sparse
// path leaves out: asymmetry and transitivity over every pair and triple
// that mixes a sparse attribute's fact-touched and in-data conditional
// values with at least one conditional value outside the data (up to 50 of
// them, lowest index first). Bridges are the transitivity instances whose
// first link is a closed fact, so they are covered too. It returns how many
// out-of-data values were added back.
func addBackDropped(e *Encoding) int {
	added := 0
	for a := 0; a < e.Schema.Len(); a++ {
		attr := relation.Attr(a)
		if countFlags(e.active[a]) <= e.rules.opts.cap() {
			continue // full path: nothing was dropped
		}
		kept, outside := map[int]bool{}, map[int]bool{}
		for f := range e.factEdges[a] {
			kept[f[0]], kept[f[1]] = true, true
		}
		for _, c := range flagged(nil, e.condVals[a]) {
			switch {
			case e.InADom(attr, c):
				kept[c] = true
			case !kept[c] && len(outside) < 50:
				outside[c] = true
			}
		}
		added += len(outside)
		vals := append(sortedKeys(kept), sortedKeys(outside)...)
		lit := func(x, y int) sat.Lit { return e.EnsureLit(OrderLit{attr, x, y}) }
		for _, x := range vals {
			for _, y := range vals {
				if x == y {
					continue
				}
				if outside[x] || outside[y] {
					e.cnf.Add(lit(x, y).Not(), lit(y, x).Not())
				}
				for _, z := range vals {
					if z != x && z != y && (outside[x] || outside[y] || outside[z]) {
						e.cnf.Add(lit(x, y).Not(), lit(y, z).Not(), lit(x, z))
					}
				}
			}
		}
	}
	return added
}

// sparseAxiomsOffData counts the axiom clauses (every clause that is not an
// Ω instance) on sparse attributes that mention a value neither in the data
// nor on a unit fact. Facts may rank data values below a CFD constant (a
// CFD whose antecedent already holds is a unit), so the fact closure and its
// bridges may name such constants; the safety-net axioms and the bridges'
// conditional ends may not.
func sparseAxiomsOffData(e *Encoding) int {
	inst := map[int]bool{}
	for _, ci := range e.InstanceClauseIndex() {
		inst[ci] = true
	}
	onFact := func(a relation.Attr, v int) bool {
		for f := range e.factEdges[a] {
			if f[0] == v || f[1] == v {
				return true
			}
		}
		return false
	}
	n := 0
	for ci, cl := range e.CNF().Clauses {
		if inst[ci] {
			continue
		}
		for _, l := range cl {
			p := e.Pair(l.Var())
			if countFlags(e.active[p.Attr]) <= e.rules.opts.cap() {
				continue
			}
			off := func(v int) bool { return !e.InADom(p.Attr, v) && !onFact(p.Attr, v) }
			if off(p.A1) || off(p.A2) {
				n++
				break
			}
		}
	}
	return n
}

// adomFixpoint loads e into a fresh solver and reports whether Φ is
// consistent at the top level, whether it is satisfiable, and the order the
// unit-propagation fixpoint derives between data values, read the way
// deduction reads it: a positive unit is its atom, a negative unit the
// reverse atom.
func adomFixpoint(e *Encoding) (consistent, satisfiable bool, atoms map[OrderLit]bool) {
	s := sat.New()
	if !e.CNF().LoadInto(s) {
		return false, false, nil
	}
	atoms = map[OrderLit]bool{}
	for _, l := range s.Assigned() {
		p := e.Pair(l.Var())
		if l.Neg() {
			p.A1, p.A2 = p.A2, p.A1
		}
		if e.InADom(p.Attr, p.A1) && e.InADom(p.Attr, p.A2) {
			atoms[p] = true
		}
	}
	return true, s.Solve() == sat.StatusSat, atoms
}

// randomCFDSpec builds a small specification whose CFDs draw their
// constants from the data and from values outside it, and may chain (one
// CFD's consequent attribute is another's antecedent), so the sparse path
// under a tiny cap has out-of-data conditional values to drop.
func randomCFDSpec(rng *rand.Rand) *model.Spec {
	nAttrs := 2 + rng.Intn(2)
	names := make([]string, nAttrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	sch := relation.MustSchema(names...)
	// val(a, i): i < 3 may occur in the data, i ≥ 3 only in CFDs.
	val := func(a, i int) relation.Value { return relation.String(fmt.Sprintf("v%d_%d", a, i)) }

	in := relation.NewInstance(sch)
	nTuples := 2 + rng.Intn(4)
	for i := 0; i < nTuples; i++ {
		tu := relation.NewTuple(sch)
		for a := range tu {
			if rng.Intn(8) > 0 {
				tu[a] = val(a, rng.Intn(3))
			}
		}
		in.MustAdd(tu)
	}
	ti := model.NewTemporal(in)
	for e := rng.Intn(3); e > 0; e-- {
		t1, t2 := relation.TupleID(rng.Intn(nTuples)), relation.TupleID(rng.Intn(nTuples))
		if t1 != t2 {
			ti.MustOrder(relation.Attr(rng.Intn(nAttrs)), t1, t2)
		}
	}

	var sigma []constraint.Currency
	for c := 1 + rng.Intn(3); c > 0; c-- {
		a, target := relation.Attr(rng.Intn(nAttrs)), relation.Attr(rng.Intn(nAttrs))
		pred := constraint.CurrencyPred(a)
		if rng.Intn(2) == 0 {
			pred = constraint.ComparePred(constraint.AttrOperand(constraint.T1, a), constraint.OpNe,
				constraint.AttrOperand(constraint.T2, a))
		}
		sigma = append(sigma, constraint.Currency{Body: []constraint.Pred{pred}, Target: target})
	}
	var gamma []constraint.CFD
	for c := 1 + rng.Intn(4); c > 0; c-- {
		x, b := rng.Intn(nAttrs), rng.Intn(nAttrs)
		if x == b {
			continue
		}
		gamma = append(gamma, constraint.CFD{
			X:  []relation.Attr{relation.Attr(x)},
			PX: []relation.Value{val(x, rng.Intn(6))},
			B:  relation.Attr(b),
			VB: val(b, rng.Intn(6)),
		})
	}
	return model.NewSpec(ti, sigma, gamma)
}

// TestAddBackDroppedAxiomsChangesNothing is the executable form of the
// argument in DESIGN.md §5: the sparse path keeps its safety-net axioms and
// bridges to conditional values inside the data only, and appending the
// ones over values outside it changes neither satisfiability nor the
// unit-propagation fixpoint over atoms between data values.
func TestAddBackDroppedAxiomsChangesNothing(t *testing.T) {
	type input struct {
		name string
		spec *model.Spec
		opts Options
	}
	var inputs []input
	for i, spec := range goldenPerson(3) {
		inputs = append(inputs, input{fmt.Sprintf("person %d", i), spec, Options{}})
	}
	rng := rand.New(rand.NewSource(874))
	for i := 0; i < 1500; i++ {
		inputs = append(inputs, input{fmt.Sprintf("random %d", i), randomCFDSpec(rng),
			Options{TransitivityCap: 1 + i%3}})
	}
	exercised, unsat := 0, 0
	for _, in := range inputs {
		pruned := Build(in.spec, in.opts)
		if n := sparseAxiomsOffData(pruned); n > 0 {
			t.Fatalf("%s: %d sparse-path axioms mention values outside the data", in.name, n)
		}
		full := Build(in.spec, in.opts)
		if addBackDropped(full) == 0 {
			continue
		}
		exercised++
		pc, ps, patoms := adomFixpoint(pruned)
		fc, fs, fatoms := adomFixpoint(full)
		if pc != fc || ps != fs {
			t.Fatalf("%s: pruned consistent=%v sat=%v, with add-back consistent=%v sat=%v",
				in.name, pc, ps, fc, fs)
		}
		if !ps {
			unsat++
		}
		if !reflect.DeepEqual(patoms, fatoms) {
			t.Fatalf("%s: fixpoint over data atoms differs:\npruned:   %v\nadd-back: %v", in.name, patoms, fatoms)
		}
	}
	if exercised < 300 || unsat == 0 || unsat == exercised {
		t.Fatalf("weak sample: %d inputs had values to add back, %d of them unsatisfiable", exercised, unsat)
	}
	t.Logf("%d inputs with dropped axioms added back, %d unsatisfiable", exercised, unsat)
}
