// Package encode compiles a specification Se = (It, Σ, Γ) into the instance
// constraints Ω(Se) and the CNF Φ(Se) of Fan et al. (ICDE 2013, Section V-A).
//
// A Boolean variable x^A_{a1 a2} stands for the value-level currency fact
// a1 ≺v_A a2 ("a2 is more current than a1 in attribute A"). The encoding
// comprises:
//
//  1. currency-order facts from the explicit edges of It, plus the implicit
//     "null ranks lowest" edges;
//  2. transitivity and asymmetry axioms making each ≺v_A a strict partial
//     order;
//  3. one instance constraint per currency constraint and tuple pair whose
//     statically evaluable body conjuncts hold;
//  4. for each constant CFD tp[X] → tp[B] and each b ∈ adom(B)\{tp[B]}, the
//     clause ωX → b ≺v tp[B], where ωX asserts every active-domain X-value
//     sits below the pattern.
//
// Two deviations from a literal reading of the paper, both documented in
// DESIGN.md §5: (a) tuple pairs are grouped by their projection onto the
// attributes a constraint actually references, which yields the same set of
// instance constraints with far less work on large entity instances; and
// (b) transitivity axioms are emitted in full only for attributes whose
// active value set is small (TransitivityCap); larger attributes get a
// sound sparse encoding (closed unit facts, axioms over the conditional
// data values, bridge clauses), which can only under-constrain — the same
// direction of incompleteness the paper accepts for its SAT reduction.
//
// Every encoding is built from a compiled rule set (Rules, see skeleton.go):
// standalone, Build compiles one for the call; through a Skeleton, one
// compiled rule set is shared and one encoding's storage is reused across a
// stream of entities.
package encode

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"conflictres/internal/constraint"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// SourceKind tags where an instance constraint came from.
type SourceKind uint8

const (
	// SrcOrder marks facts from explicit or implicit currency-order edges.
	SrcOrder SourceKind = iota
	// SrcCurrency marks instances of a currency constraint in Σ.
	SrcCurrency
	// SrcCFD marks instances of a constant CFD in Γ.
	SrcCFD
)

// Source identifies the origin of an instance constraint.
type Source struct {
	Kind  SourceKind
	Index int // index into Sigma (SrcCurrency) or Gamma (SrcCFD); -1 otherwise
}

// OrderLit is the atom dom[Attr][A1] ≺v_Attr dom[Attr][A2].
type OrderLit struct {
	Attr   relation.Attr
	A1, A2 int // indices into the attribute's value domain
}

// Instance is one instance constraint of Ω(Se): Body → Head. Facts have an
// empty body.
type Instance struct {
	Body []OrderLit
	Head OrderLit
	Src  Source
}

// Options tunes the encoder.
type Options struct {
	// TransitivityCap is the per-attribute active-value count up to which
	// the full cubic transitivity axioms are emitted; above it the sparse
	// encoding is used. Zero means the default (50).
	TransitivityCap int
	// NoProjectionDedup disables grouping tuples by constraint projection
	// and instantiates over raw tuple pairs, the literal O(|Σ||It|²)
	// reading of the paper. Identical output (instances are deduplicated
	// either way); exists for the ablation benchmarks.
	NoProjectionDedup bool
}

func (o Options) cap() int {
	if o.TransitivityCap <= 0 {
		return 50
	}
	return o.TransitivityCap
}

type pairKey struct {
	attr relation.Attr
	a1   int
	a2   int
}

// valKey canonicalizes a value for domain dedup without building strings:
// numerically equal int/float collapse onto one float key, strings and null
// keep their kind. NaN needs its own kind because NaN != NaN would make it
// unusable as a map key. (The old string-keyed scheme distinguished 0 from
// -0 through their decimal renderings; the float key collapses them, which
// agrees with relation.Equal.)
type valKey struct {
	kind relation.Kind
	f    float64
	s    string
}

const kindNaN = relation.Kind(0xfe)

func canonKey(v relation.Value) valKey {
	switch v.Kind() {
	case relation.KindNull:
		return valKey{}
	case relation.KindString:
		return valKey{kind: relation.KindString, s: v.Str()}
	default:
		f := asFloat(v)
		if math.IsNaN(f) {
			return valKey{kind: kindNaN}
		}
		return valKey{kind: relation.KindFloat, f: f}
	}
}

func asFloat(v relation.Value) float64 {
	if v.Kind() == relation.KindInt {
		return float64(v.Int64())
	}
	return v.Float64()
}

// Encoding is the compiled form of a specification. It owns the variable
// mapping and can be extended with fresh variables after construction (the
// Suggest algorithm asserts facts over pairs the original CNF never
// mentioned; EnsureLit allocates them consistently, including asymmetry).
//
// An encoding produced by a Skeleton reuses arena-backed storage: building
// the next entity on the same skeleton invalidates every slice previously
// obtained from this encoding (Dom, CNF clauses, Omega bodies). Callers that
// outlive the build — sessions, one-shot resolves — must copy out anything
// they keep, which the core package's result types already do.
type Encoding struct {
	Spec   *model.Spec
	Schema *relation.Schema

	rules   *Rules
	doms    [][]relation.Value // per attribute: active domain ∪ CFD constants
	adomSz  []int              // per attribute: |adom| prefix of doms at Build time
	domIdx  []map[valKey]int   // canonical data value -> index in doms
	slotDom [][]int            // per attribute: CFD-constant slot (Rules.consts) -> index in doms

	// Incremental extension (Se ⊕ Ot) appends new active-domain values past
	// the CFD-constant suffix, so adom membership is the Build-time prefix
	// plus an explicit extra set; adomIdx materializes the union for loops.
	adomExtra []map[int]bool
	adomIdx   [][]int

	varOf  map[pairKey]sat.Var
	pairs  []pairKey // var -> pair
	cnf    *sat.CNF
	Omega  []Instance // facts + currency instances + CFD instances (no axioms)
	Sparse bool       // true if any attribute used the sparse transitivity path

	instIdx   []int             // per Omega instance: its clause index in cnf
	edgesDone int               // explicit order edges already encoded
	seenOrder map[OrderLit]bool // order-fact dedup (facts have no body)
	// Per attribute, one flag per domain index: values mentioned by Ω
	// (covered by axioms), and those mentioned by a conditional instance.
	active   [][]bool
	condVals [][]bool
	// Instance dedup, binary keys, per source kind (Γ only when the rule set
	// lets two CFDs collide). The maps persist across builds (skeleton
	// reuse) with an epoch marking the current build: recurring keys —
	// entities under one rule set emit near-identical instance shapes —
	// dedup without re-allocating the key string, and the boxed epoch lets
	// stale entries be revived in place.
	seenSigma map[string]*uint32
	seenGamma map[string]*uint32
	seenEpoch uint32
	// sigmaVisited counts the Σ constraints the last Build instantiated.
	sigmaVisited int

	// tix[t][a] is the domain index of tuple t's value in attribute a, so
	// instantiation never re-hashes values. Rows are append-only and stay
	// valid (contents frozen) even when later rows grow the backing array.
	tix     [][]int32
	tixData []int32

	// Arena backing the Omega instance bodies.
	bodyBlocks [][]OrderLit
	bodyCur    int

	// Scratch storage, reused across emissions and across builds on the
	// skeleton path.
	keyBuf    []byte
	sortBuf   []OrderLit
	bodyBuf   []OrderLit
	cfdBuf    []OrderLit
	litBuf    []sat.Lit
	intBuf    []int
	condBuf   []int
	liveBuf   []int32
	guardHit  []bool
	guardCnt  []int32
	projIdx   map[string]int
	projReps  []int
	projCnt   []int
	axAll     []int
	axNew     map[int]bool
	factEdges []map[[2]int]bool
}

// seenKeyCap bounds the persistent instance-dedup maps: past it, the next
// build clears them (correct, just loses the cross-entity interning until
// they refill).
const seenKeyCap = 1 << 17

// Build compiles the specification. It never fails structurally (call
// Spec.Validate first); contradictory order information simply yields an
// unsatisfiable Φ(Se), which is precisely what IsValid detects.
func Build(spec *model.Spec, opts Options) *Encoding {
	e := &Encoding{}
	e.init(Compile(spec.Sigma, spec.Gamma, opts), spec)
	return e
}

// init compiles spec into e, reusing whatever storage e already holds. The
// rules must have been compiled from spec's Σ and Γ (or equal ones).
func (e *Encoding) init(r *Rules, spec *model.Spec) {
	e.rules = r
	e.Spec = spec
	e.Schema = spec.Schema()
	e.resetStorage(e.Schema.Len())
	e.buildDomains()
	e.emitOrderFacts()
	if r.opts.NoProjectionDedup {
		e.emitCurrencyInstancesNaive()
	} else {
		e.emitCurrencyInstances()
	}
	e.emitCFDInstances()
	e.emitAxioms(r.opts.cap())
}

// resetStorage clears every piece of build state while keeping allocations,
// sizing the per-attribute tables to n.
func (e *Encoding) resetStorage(n int) {
	e.Sparse = false
	e.edgesDone = 0
	e.pairs = e.pairs[:0]
	e.Omega = e.Omega[:0]
	e.instIdx = e.instIdx[:0]
	for i := range e.bodyBlocks {
		e.bodyBlocks[i] = e.bodyBlocks[i][:0]
	}
	e.bodyCur = 0
	if e.cnf == nil {
		e.cnf = sat.NewCNF(0)
	} else {
		e.cnf.Reset()
	}
	if e.varOf == nil {
		e.varOf = make(map[pairKey]sat.Var)
	} else {
		clear(e.varOf)
	}
	if e.seenOrder == nil {
		e.seenOrder = make(map[OrderLit]bool)
	} else {
		clear(e.seenOrder)
	}
	if e.seenSigma == nil {
		e.seenSigma = make(map[string]*uint32)
	}
	if e.seenGamma == nil {
		e.seenGamma = make(map[string]*uint32)
	}
	e.seenEpoch++
	if e.seenEpoch == 0 || len(e.seenSigma) > seenKeyCap || len(e.seenGamma) > seenKeyCap {
		clear(e.seenSigma)
		clear(e.seenGamma)
		e.seenEpoch = 1
	}

	// Per-attribute tables: truncate or grow to n, clearing reused entries.
	if cap(e.doms) < n {
		e.doms = make([][]relation.Value, n)
		e.adomSz = make([]int, n)
		e.domIdx = make([]map[valKey]int, n)
		e.slotDom = make([][]int, n)
		e.adomExtra = make([]map[int]bool, n)
		e.adomIdx = make([][]int, n)
		e.active = make([][]bool, n)
		e.factEdges = make([]map[[2]int]bool, n)
		e.condVals = make([][]bool, n)
	} else {
		e.doms = e.doms[:n]
		e.adomSz = e.adomSz[:n]
		e.domIdx = e.domIdx[:n]
		e.slotDom = e.slotDom[:n]
		e.adomExtra = e.adomExtra[:n]
		e.adomIdx = e.adomIdx[:n]
		e.active = e.active[:n]
		e.factEdges = e.factEdges[:n]
		e.condVals = e.condVals[:n]
	}
	for a := 0; a < n; a++ {
		e.doms[a] = e.doms[a][:0]
		e.adomSz[a] = 0
		e.adomIdx[a] = e.adomIdx[a][:0]
		if e.domIdx[a] == nil {
			e.domIdx[a] = make(map[valKey]int)
		} else {
			clear(e.domIdx[a])
		}
		if e.adomExtra[a] == nil {
			e.adomExtra[a] = make(map[int]bool)
		} else {
			clear(e.adomExtra[a])
		}
		if e.factEdges[a] == nil {
			e.factEdges[a] = make(map[[2]int]bool)
		} else {
			clear(e.factEdges[a])
		}
	}
}

// emitCurrencyInstancesNaive instantiates over all ordered tuple pairs — the
// paper's literal algorithm; kept for ablation benchmarking.
func (e *Encoding) emitCurrencyInstancesNaive() {
	n := e.Spec.TI.Inst.Len()
	for ci, c := range e.Spec.Sigma {
		for t1 := 0; t1 < n; t1++ {
			for t2 := 0; t2 < n; t2++ {
				if t1 == t2 {
					continue
				}
				e.instantiatePair(ci, c, relation.TupleID(t1), relation.TupleID(t2))
			}
		}
	}
}

// CNF returns Φ(Se). The encoding retains ownership; callers who mutate the
// formula should Clone it first (EnsureLit may append asymmetry clauses).
func (e *Encoding) CNF() *sat.CNF { return e.cnf }

// Dom returns the value domain of attribute a: the Build-time active domain
// first (see ADomSize), then CFD constants not occurring in the data, then
// values appended by incremental extension.
func (e *Encoding) Dom(a relation.Attr) []relation.Value { return e.doms[a] }

// ADomSize returns the Build-time |adom(Ie.a)|; Dom(a)[:ADomSize(a)] is that
// prefix. Incremental extension can grow the active domain past it — loops
// over the current active domain must use ADomIndices / InADom instead.
func (e *Encoding) ADomSize(a relation.Attr) int { return e.adomSz[a] }

// ADomIndices returns the domain indices forming the current active domain
// of attribute a, in ascending order. The slice is owned by the encoding;
// callers must not mutate it.
func (e *Encoding) ADomIndices(a relation.Attr) []int { return e.adomIdx[a] }

// InADom reports whether domain index i of attribute a is in the current
// active domain (Build-time prefix or an extension-added value).
func (e *Encoding) InADom(a relation.Attr, i int) bool {
	return i < e.adomSz[a] || e.adomExtra[a][i]
}

// InstanceClauseIndex returns, for each instance of Omega (same order), the
// index of its clause in CNF().Clauses. Diagnose uses it to separate soft
// instance clauses from hard axioms without relying on emission order.
func (e *Encoding) InstanceClauseIndex() []int { return e.instIdx }

// ValueIndex resolves a value to its domain index for attribute a; ok is
// false if the value is not in the domain.
func (e *Encoding) ValueIndex(a relation.Attr, v relation.Value) (int, bool) {
	return e.indexOf(a, canonKey(v))
}

// indexOf resolves a canonical key: data values through domIdx, CFD
// constants through the compiled constant table.
func (e *Encoding) indexOf(a relation.Attr, k valKey) (int, bool) {
	if i, ok := e.domIdx[a][k]; ok {
		return i, true
	}
	if int(a) < len(e.rules.constSlot) {
		if s, ok := e.rules.constSlot[a][k]; ok {
			return e.slotDom[a][s], true
		}
	}
	return 0, false
}

// NumVars returns the number of allocated order variables.
func (e *Encoding) NumVars() int { return len(e.pairs) }

// Pair maps a variable back to its order atom.
func (e *Encoding) Pair(v sat.Var) OrderLit {
	p := e.pairs[v]
	return OrderLit{Attr: p.attr, A1: p.a1, A2: p.a2}
}

// LitFor returns the positive literal for the atom, if it was allocated.
func (e *Encoding) LitFor(l OrderLit) (sat.Lit, bool) {
	v, ok := e.varOf[pairKey{l.Attr, l.A1, l.A2}]
	if !ok {
		return 0, false
	}
	return sat.PosLit(v), true
}

// EnsureLit returns the positive literal for the atom, allocating the
// variable (and the reverse-direction variable plus their asymmetry clause)
// if needed. Appending to the CNF after Build is sound: new clauses only
// constrain new variables.
func (e *Encoding) EnsureLit(l OrderLit) sat.Lit {
	k := pairKey{l.Attr, l.A1, l.A2}
	if v, ok := e.varOf[k]; ok {
		return sat.PosLit(v)
	}
	rk := pairKey{l.Attr, l.A2, l.A1}
	v := e.newVar(k)
	if rv, ok := e.varOf[rk]; ok {
		e.cnf.Add(sat.NegLit(v), sat.NegLit(rv))
	} else {
		rv = e.newVar(rk)
		e.cnf.Add(sat.NegLit(v), sat.NegLit(rv))
	}
	return sat.PosLit(v)
}

func (e *Encoding) newVar(k pairKey) sat.Var {
	v := sat.Var(len(e.pairs))
	e.varOf[k] = v
	e.pairs = append(e.pairs, k)
	if e.cnf.NVars < len(e.pairs) {
		e.cnf.NVars = len(e.pairs)
	}
	return v
}

// litRaw allocates without asymmetry bookkeeping; used during Build, which
// emits asymmetry axioms in one sweep afterwards.
func (e *Encoding) litRaw(attr relation.Attr, a1, a2 int) sat.Lit {
	k := pairKey{attr, a1, a2}
	v, ok := e.varOf[k]
	if !ok {
		v = e.newVar(k)
	}
	return sat.PosLit(v)
}

// addDomValue registers v in attribute a's domain and returns its index.
func (e *Encoding) addDomValue(a relation.Attr, v relation.Value) int {
	k := canonKey(v)
	if i, ok := e.indexOf(a, k); ok {
		return i
	}
	return e.intern(a, k, v)
}

// intern registers a data value, looking only at the values interned so far
// (not at the CFD constants).
func (e *Encoding) intern(a relation.Attr, k valKey, v relation.Value) int {
	if i, ok := e.domIdx[a][k]; ok {
		return i
	}
	i := len(e.doms[a])
	e.doms[a] = append(e.doms[a], v)
	e.domIdx[a][k] = i
	return i
}

// buildDomains interns the data values (the active-domain prefix), then
// appends the CFD constants not among them in the compiled table's order.
func (e *Encoding) buildDomains() {
	n := e.Schema.Len()
	in := e.Spec.TI.Inst
	nT := in.Len()
	if cap(e.tixData) < nT*n {
		e.tixData = make([]int32, 0, nT*n)
	} else {
		e.tixData = e.tixData[:0]
	}
	e.tix = e.tix[:0]
	for t := 0; t < nT; t++ {
		tu := in.Tuple(relation.TupleID(t))
		start := len(e.tixData)
		for a := 0; a < n; a++ {
			v := tu[a]
			e.tixData = append(e.tixData, int32(e.intern(relation.Attr(a), canonKey(v), v)))
		}
		e.tix = append(e.tix, e.tixData[start:len(e.tixData):len(e.tixData)])
	}
	r := e.rules
	for a := 0; a < n; a++ {
		e.adomSz[a] = len(e.doms[a])
		var consts []relation.Value
		if a < len(r.consts) {
			consts = r.consts[a]
		}
		slots := e.slotDom[a][:0]
		for range consts {
			slots = append(slots, -1)
		}
		if len(consts) > 0 {
			for i := 0; i < e.adomSz[a]; i++ {
				if s, ok := r.constSlot[a][canonKey(e.doms[a][i])]; ok {
					slots[s] = i
				}
			}
			for s, v := range consts {
				if slots[s] < 0 {
					slots[s] = len(e.doms[a])
					e.doms[a] = append(e.doms[a], v)
				}
			}
		}
		e.slotDom[a] = slots
		idx := e.adomIdx[a][:0]
		for i := 0; i < e.adomSz[a]; i++ {
			idx = append(idx, i)
		}
		e.adomIdx[a] = idx
	}
}

// joinADom adds domain index i of attribute a to the active domain; no-op if
// already a member.
func (e *Encoding) joinADom(a relation.Attr, i int) {
	if e.InADom(a, i) {
		return
	}
	e.adomExtra[a][i] = true
	e.adomIdx[a] = append(e.adomIdx[a], i)
	sort.Ints(e.adomIdx[a])
}

// instKey canonicalizes an instance constraint for dedup: the body sorted,
// then the head, varint-encoded into the reused key buffer. The returned
// slice is only valid until the next key is built.
func (e *Encoding) instKey(body []OrderLit, head OrderLit) []byte {
	sb := append(e.sortBuf[:0], body...)
	e.sortBuf = sb
	for i := 1; i < len(sb); i++ {
		for j := i; j > 0 && orderLitLess(sb[j], sb[j-1]); j-- {
			sb[j], sb[j-1] = sb[j-1], sb[j]
		}
	}
	buf := binary.AppendUvarint(e.keyBuf[:0], uint64(len(sb)))
	for _, l := range sb {
		buf = appendOrderLit(buf, l)
	}
	buf = appendOrderLit(buf, head)
	e.keyBuf = buf
	return buf
}

func orderLitLess(a, b OrderLit) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.A1 != b.A1 {
		return a.A1 < b.A1
	}
	return a.A2 < b.A2
}

func appendOrderLit(buf []byte, l OrderLit) []byte {
	buf = binary.AppendUvarint(buf, uint64(l.Attr))
	buf = binary.AppendUvarint(buf, uint64(l.A1))
	return binary.AppendUvarint(buf, uint64(l.A2))
}

// allocBody copies a body into the instance-body arena; empty bodies stay
// nil (facts).
func (e *Encoding) allocBody(body []OrderLit) []OrderLit {
	n := len(body)
	if n == 0 {
		return nil
	}
	for e.bodyCur < len(e.bodyBlocks) {
		b := e.bodyBlocks[e.bodyCur]
		if cap(b)-len(b) >= n {
			cl := append(b[len(b):len(b):cap(b)], body...)
			e.bodyBlocks[e.bodyCur] = b[:len(b)+n]
			return cl[:n:n]
		}
		e.bodyCur++
	}
	size := 1 << 12
	if n > size {
		size = n
	}
	block := make([]OrderLit, 0, size)
	cl := append(block, body...)
	e.bodyBlocks = append(e.bodyBlocks, cl)
	e.bodyCur = len(e.bodyBlocks) - 1
	return cl[:n:n]
}

// addInstance records the instance in Ω and emits its clause, deduplicating
// per source kind. Order facts (empty body) dedup on the head atom alone;
// Σ and Γ instances dedup on a binary body+head key built in scratch,
// except Γ instances of a rule set whose CFDs provably never collide
// (Rules.gammaUnique): one CFD never repeats a head within a build.
func (e *Encoding) addInstance(body []OrderLit, head OrderLit, src Source) {
	switch src.Kind {
	case SrcOrder:
		if e.seenOrder[head] {
			return
		}
		e.seenOrder[head] = true
	case SrcCurrency:
		if e.seen(e.seenSigma, body, head) {
			return
		}
	case SrcCFD:
		if !e.rules.gammaUnique && e.seen(e.seenGamma, body, head) {
			return
		}
	}
	e.Omega = append(e.Omega, Instance{Body: e.allocBody(body), Head: head, Src: src})
	cl := e.litBuf[:0]
	for _, l := range body {
		cl = append(cl, e.litRaw(l.Attr, l.A1, l.A2).Not())
	}
	cl = append(cl, e.litRaw(head.Attr, head.A1, head.A2))
	e.litBuf = cl
	e.instIdx = append(e.instIdx, len(e.cnf.Clauses))
	e.cnf.Add(cl...)
}

// seen reports whether the instance is already in this build's dedup map,
// recording it if not.
func (e *Encoding) seen(m map[string]*uint32, body []OrderLit, head OrderLit) bool {
	k := e.instKey(body, head)
	if p, ok := m[string(k)]; ok {
		if *p == e.seenEpoch {
			return true // duplicate within this build
		}
		*p = e.seenEpoch // key known from an earlier build: revive in place
		return false
	}
	ep := e.seenEpoch
	m[string(k)] = &ep
	return false
}

// emitOrderFacts encodes the currency orders of It (Section V-A (1)(a)):
// explicit edges plus the implicit null-lowest edges.
func (e *Encoding) emitOrderFacts() {
	e.emitEdgeFacts()
	// Null ranks lowest: null ≺v a for every non-null active-domain value.
	for a := 0; a < e.Schema.Len(); a++ {
		attr := relation.Attr(a)
		ni, ok := e.ValueIndex(attr, relation.Null)
		if !ok || !e.InADom(attr, ni) {
			continue // no null among the data values
		}
		for _, i := range e.adomIdx[a] {
			if i == ni {
				continue
			}
			e.addInstance(nil, OrderLit{attr, ni, i}, Source{SrcOrder, -1})
		}
	}
}

// emitEdgeFacts encodes the explicit edges not yet processed, advancing
// edgesDone so incremental extension only sees the new ones.
func (e *Encoding) emitEdgeFacts() {
	in := e.Spec.TI.Inst
	edges := e.Spec.TI.Edges
	for _, edge := range edges[e.edgesDone:] {
		v1 := in.Value(edge.T1, edge.Attr)
		v2 := in.Value(edge.T2, edge.Attr)
		if relation.Equal(v1, v2) {
			continue // t1 ≼ t2 with equal values carries no value-level info
		}
		i1, _ := e.ValueIndex(edge.Attr, v1)
		i2, _ := e.ValueIndex(edge.Attr, v2)
		e.addInstance(nil, OrderLit{edge.Attr, i1, i2}, Source{SrcOrder, -1})
	}
	e.edgesDone = len(edges)
}

// refAttrsOf returns the attributes a currency constraint reads or writes.
func refAttrsOf(c constraint.Currency) []relation.Attr {
	set := map[relation.Attr]bool{c.Target: true}
	for _, p := range c.Body {
		switch p.Kind {
		case constraint.PredCurrency:
			set[p.Attr] = true
		case constraint.PredCompare:
			if !p.L.Const {
				set[p.L.Attr] = true
			}
			if !p.R.Const {
				set[p.R.Attr] = true
			}
		}
	}
	out := make([]relation.Attr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// selectSigma returns, in ascending order, the constraints of Σ whose
// guards (Rules.compileGuards) all match some active-domain value, plus the
// unguarded ones. Every other constraint has a conjunct tᵢ[A] = c that no
// tuple satisfies, so it yields no instance. A NaN data value equals every
// number under relation.Compare, so it counts as a hit for every guard on
// its attribute.
func (e *Encoding) selectSigma() []int32 {
	r := e.rules
	hit := resetFlags(e.guardHit, len(r.guardCons))
	cnt := e.guardCnt[:0]
	for range r.needHits {
		cnt = append(cnt, 0)
	}
	e.guardHit, e.guardCnt = hit, cnt
	mark := func(g int32) {
		if !hit[g] {
			hit[g] = true
			for _, ci := range r.guardCons[g] {
				cnt[ci]++
			}
		}
	}
	for _, g := range r.nanGuards {
		mark(g)
	}
	for a, index := range r.guardOf {
		for _, v := range e.doms[a][:e.adomSz[a]] {
			k := canonKey(v)
			if k.kind == kindNaN { // matches every guard; marking order is irrelevant
				for _, g := range index {
					mark(g)
				}
			} else if g, ok := index[k]; ok {
				mark(g)
			}
		}
	}
	live := e.liveBuf[:0]
	for ci, need := range r.needHits {
		if cnt[ci] == need {
			live = append(live, int32(ci))
		}
	}
	e.liveBuf = live
	return live
}

// emitCurrencyInstances instantiates each currency constraint the entity's
// data can fire (selectSigma) over all tuple pairs (Section V-A (2)),
// grouping tuples by their projection onto the referenced attributes: two
// tuples with equal projections induce identical instance constraints, so
// one representative per projection suffices. Projection keys are built
// from domain indices (no value hashing), and the group index is reused
// across constraints and builds.
func (e *Encoding) emitCurrencyInstances() {
	nT := e.Spec.TI.Inst.Len()
	live := e.selectSigma()
	e.sigmaVisited = len(live)
	for _, ci32 := range live {
		ci := int(ci32)
		c := e.Spec.Sigma[ci]
		attrs := e.rules.refAttrs[ci]
		if e.projIdx == nil {
			e.projIdx = make(map[string]int)
		} else {
			clear(e.projIdx)
		}
		reps := e.projReps[:0]
		cnt := e.projCnt[:0]
		for t := 0; t < nT; t++ {
			row := e.tix[t]
			buf := e.keyBuf[:0]
			for _, a := range attrs {
				buf = binary.AppendUvarint(buf, uint64(row[a]))
			}
			e.keyBuf = buf
			if pi, ok := e.projIdx[string(buf)]; ok {
				cnt[pi]++
			} else {
				e.projIdx[string(buf)] = len(reps)
				reps = append(reps, t)
				cnt = append(cnt, 1)
			}
		}
		e.projReps, e.projCnt = reps, cnt
		for i := range reps {
			for j := range reps {
				if i == j && cnt[i] < 2 {
					continue // needs two distinct tuples sharing the projection
				}
				e.instantiatePair(ci, c, relation.TupleID(reps[i]), relation.TupleID(reps[j]))
			}
		}
	}
}

// instantiatePair emits ins(ω, s1, s2) → s1[Ar] ≺v s2[Ar] if the instance is
// non-vacuous. Currency-predicate atoms never involve null: a missing value
// carries no order information through ≺-predicates (it ranks lowest by
// convention, but that knowledge lives in the null-lowest facts, not in
// constraint firing). Only comparison predicates treat null < k. Without
// this rule, the framework's user-input tuple — null in every unanswered
// attribute — would fire constraint bodies via null-lowest facts and rank
// its own validated values below stale data (see DESIGN.md §5).
//
// Value equality tests run on domain indices. The interning collapses the
// values relation.Equal identifies, except NaN: Equal calls NaN equal to
// every number, but NaN keeps its own domain index, so these tests treat a
// NaN and a number as different values.
func (e *Encoding) instantiatePair(ci int, c constraint.Currency, t1, t2 relation.TupleID) {
	in := e.Spec.TI.Inst
	s1, s2 := in.Tuple(t1), in.Tuple(t2)
	x1, x2 := e.tix[t1], e.tix[t2]
	if x1[c.Target] == x2[c.Target] {
		return // consequent trivially satisfiable at the tuple level
	}
	if s1[c.Target].IsNull() || s2[c.Target].IsNull() {
		return // null never appears in a currency atom
	}
	body := e.bodyBuf[:0]
	for _, p := range c.Body {
		switch p.Kind {
		case constraint.PredCompare:
			if p.L.Resolve(s1, s2).IsNull() || p.R.Resolve(s1, s2).IsNull() {
				e.bodyBuf = body
				return // missing values never fire constraints
			}
			if !p.EvalCompare(s1, s2) {
				e.bodyBuf = body
				return // statically false conjunct: instance vacuous
			}
		case constraint.PredCurrency:
			if x1[p.Attr] == x2[p.Attr] {
				e.bodyBuf = body
				return // strict order between equal values is impossible
			}
			if s1[p.Attr].IsNull() || s2[p.Attr].IsNull() {
				e.bodyBuf = body
				return // null never appears in a currency atom
			}
			body = append(body, OrderLit{p.Attr, int(x1[p.Attr]), int(x2[p.Attr])})
		}
	}
	e.bodyBuf = body
	e.addInstance(body, OrderLit{c.Target, int(x1[c.Target]), int(x2[c.Target])},
		Source{SrcCurrency, ci})
}

// emitCFDInstances encodes each constant CFD (Section V-A (3)).
func (e *Encoding) emitCFDInstances() {
	for gi := range e.Spec.Gamma {
		e.emitCFD(gi, e.adomIdx[e.Spec.Gamma[gi].B])
	}
}

// emitCFD adds the instances ωX → b ≺v tp[B] of CFD gi for each head value
// b in heads other than tp[B]. Pattern values resolve through the compiled
// constant slots.
func (e *Encoding) emitCFD(gi int, heads []int) {
	cfd := e.Spec.Gamma[gi]
	bi := e.slotDom[cfd.B][e.rules.cfdSlots[gi][len(cfd.X)]]
	omegaX := e.cfdBody(gi)
	for _, i := range heads {
		if i == bi {
			continue
		}
		e.addInstance(omegaX, OrderLit{cfd.B, i, bi}, Source{SrcCFD, gi})
	}
}

// cfdBody builds ωX for CFD gi: every other active-domain X-value sits below
// the pattern. The returned slice is scratch, valid until the next cfdBody
// call.
func (e *Encoding) cfdBody(gi int) []OrderLit {
	omegaX := e.cfdBuf[:0]
	slots := e.rules.cfdSlots[gi]
	for xi, a := range e.Spec.Gamma[gi].X {
		pi := e.slotDom[a][slots[xi]]
		for _, i := range e.adomIdx[a] {
			if i == pi {
				continue
			}
			omegaX = append(omegaX, OrderLit{a, i, pi})
		}
	}
	e.cfdBuf = omegaX
	return omegaX
}

// emitAxioms adds asymmetry and transitivity (Section V-A (1)(b)(c)) over
// each attribute's active values — the values actually mentioned by some
// fact or instance constraint. Unmentioned values are unconstrained and can
// be inserted anywhere in a completion, so axioms about them change nothing.
func (e *Encoding) emitAxioms(transCap int) {
	n := e.Schema.Len()
	for a := 0; a < n; a++ {
		e.active[a] = resetFlags(e.active[a], len(e.doms[a]))
		e.condVals[a] = resetFlags(e.condVals[a], len(e.doms[a]))
	}
	mark := func(l OrderLit, unit bool) {
		act := e.active[l.Attr]
		act[l.A1], act[l.A2] = true, true
		if !unit {
			cond := e.condVals[l.Attr]
			cond[l.A1], cond[l.A2] = true, true
		}
	}
	for _, inst := range e.Omega {
		unit := len(inst.Body) == 0
		mark(inst.Head, unit)
		if unit {
			e.factEdges[inst.Head.Attr][[2]int{inst.Head.A1, inst.Head.A2}] = true
		}
		for _, l := range inst.Body {
			mark(l, false)
		}
	}

	for a := 0; a < n; a++ {
		attr := relation.Attr(a)
		vals := flagged(e.intBuf[:0], e.active[a])
		e.intBuf = vals
		if len(vals) <= transCap {
			e.emitFullAxioms(attr, vals)
			continue
		}
		e.Sparse = true
		cond := flagged(e.condBuf[:0], e.condVals[a])
		e.condBuf = cond
		e.emitSparseAxioms(attr, vals, e.factEdges[a], cond, transCap)
	}
}

// resetFlags returns f resized to n flags, all false, reusing its storage.
func resetFlags(f []bool, n int) []bool {
	if cap(f) < n {
		return make([]bool, n)
	}
	f = f[:n]
	clear(f)
	return f
}

// countFlags returns how many flags are set.
func countFlags(f []bool) int {
	n := 0
	for _, on := range f {
		if on {
			n++
		}
	}
	return n
}

// flagged appends to dst the indices of the set flags, ascending.
func flagged(dst []int, f []bool) []int {
	for i, on := range f {
		if on {
			dst = append(dst, i)
		}
	}
	return dst
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// emitFullAxioms adds pairwise asymmetry and all-triples transitivity over
// the given value indices.
func (e *Encoding) emitFullAxioms(attr relation.Attr, vals []int) {
	e.emitAxiomsOver(attr, nil, vals)
}

// emitSparseAxioms handles attributes with large active-value sets: the
// transitive closure of the unit facts is materialized as additional unit
// clauses (with a direct contradiction emitted on a fact cycle), full
// axioms are restricted to the data values occurring in conditional
// clauses, and binary bridge clauses connect closed facts to those
// conditional values.
func (e *Encoding) emitSparseAxioms(attr relation.Attr, vals []int, facts map[[2]int]bool, cond []int, transCap int) {
	// Compact closure over the fact-touched values.
	touched := map[int]int{}
	var order []int
	idx := func(v int) int {
		if i, ok := touched[v]; ok {
			return i
		}
		i := len(order)
		touched[v] = i
		order = append(order, v)
		return i
	}
	// Sorted facts fix the value numbering, and with it the clause order.
	sorted := make([][2]int, 0, len(facts))
	for f := range facts {
		sorted = append(sorted, f)
	}
	slices.SortFunc(sorted, func(x, y [2]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	type edge struct{ a, b int }
	edges := make([]edge, 0, len(sorted))
	for _, f := range sorted {
		edges = append(edges, edge{idx(f[0]), idx(f[1])})
	}
	m := len(order)
	reach := make([]bool, m*m)
	for _, ed := range edges {
		reach[ed.a*m+ed.b] = true
	}
	for k := 0; k < m; k++ {
		for i := 0; i < m; i++ {
			if !reach[i*m+k] {
				continue
			}
			for j := 0; j < m; j++ {
				if reach[k*m+j] {
					reach[i*m+j] = true
				}
			}
		}
	}
	// Emit closed facts; a cycle yields an immediate contradiction.
	for i := 0; i < m; i++ {
		if reach[i*m+i] {
			x := e.litRaw(attr, order[i], order[(i+1)%m])
			e.cnf.Add(x)
			e.cnf.Add(x.Not())
			return
		}
		for j := 0; j < m; j++ {
			if i != j && reach[i*m+j] {
				e.cnf.Add(e.litRaw(attr, order[i], order[j]))
				// Asymmetry with the reverse direction.
				e.cnf.Add(e.litRaw(attr, order[j], order[i]).Not())
			}
		}
	}
	// Full axioms over the conditional values in the data (cap as a final
	// safety net). A value outside the data — a CFD constant — is never the
	// lower end of a derivable atom, so axioms and bridges over it never
	// fire (DESIGN.md §5).
	cond = slices.DeleteFunc(cond, func(c int) bool { return !e.InADom(attr, c) })
	if len(cond) > transCap {
		cond = cond[:transCap]
	}
	e.emitFullAxioms(attr, cond)
	// Bridges: for each closed fact a≺b and conditional value c:
	// b≺c ⇒ a≺c and c≺a ⇒ c≺b.
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j || !reach[i*m+j] {
				continue
			}
			a, b := order[i], order[j]
			for _, c := range cond {
				if c == a || c == b {
					continue
				}
				e.cnf.Add(e.litRaw(attr, b, c).Not(), e.litRaw(attr, a, c))
				e.cnf.Add(e.litRaw(attr, c, a).Not(), e.litRaw(attr, c, b))
			}
		}
	}
}

// ExtendAnswers applies the framework's Se ⊕ Ot step for user-validated
// true values to the encoding in place: the specification is extended
// (Spec.Extend appends the user tuple t_o and its order edges), and the new
// instance constraints, facts and axioms are appended to Ω and Φ without
// touching any existing clause. Callers then load only the clause suffix
// into an incremental solver.
//
// The delta comprises exactly what a fresh Build of the extended
// specification would add: order-fact units for the new edges, null-lowest
// facts for values joining an attribute's active domain, currency instances
// pairing every existing tuple with t_o, CFD instances whose head ranges
// over the newly joined values, and asymmetry/transitivity axioms involving
// at least one newly active value.
//
// It returns false when the extension is not expressible as a monotone
// clause addition and the caller must rebuild via Build(e.Spec, opts):
//   - a value joins the active domain of an attribute on a CFD left-hand
//     side with a differing pattern value (ωX of already-emitted instances
//     would weaken, which clause addition cannot express),
//   - the encoding used the sparse transitivity path, or
//   - a newly active value would push an attribute past the transitivity
//     cap into the sparse regime.
//
// On a false return e.Spec is already the extended specification but the
// formula is stale; the encoding must be discarded.
func (e *Encoding) ExtendAnswers(answers map[relation.Attr]relation.Value) bool {
	if len(answers) == 0 {
		return true
	}
	e.Spec = e.Spec.Extend(answers)
	return e.extendTuples(1)
}

// ExtendRows applies the change-data-capture step Se ⊕ rows to the encoding
// in place: the specification gains the appended data tuples (and any new
// order edges, which may reference them), and the corresponding instance
// constraints, facts and axioms are appended to Ω and Φ without touching
// any existing clause — the same monotone append path as ExtendAnswers,
// generalized to whole tuples. The same fallback conditions apply (see
// ExtendAnswers): on a false return e.Spec already carries the extension
// but the formula is stale and the encoding must be rebuilt.
func (e *Encoding) ExtendRows(rows []relation.Tuple, edges []model.OrderEdge) bool {
	if len(rows) == 0 && len(edges) == 0 {
		return true
	}
	e.Spec = e.Spec.ExtendRows(rows, edges)
	return e.extendTuples(len(rows))
}

// extendTuples appends the formula delta for the last k tuples of the
// (already extended) specification plus any not-yet-emitted order edges.
// It returns false when the delta is not monotone (see ExtendAnswers).
func (e *Encoding) extendTuples(k int) bool {
	if e.Sparse {
		return false
	}
	in := e.Spec.TI.Inst
	nT := in.Len()
	first := nT - k
	n := e.Schema.Len()

	// Pre-check (pure): a non-null value joining adom(a) weakens a CFD's ωX
	// when a ∈ X and the value differs from that CFD's pattern on a —
	// already-emitted clauses would need an extra body conjunct, which
	// clause addition cannot express. New nulls join adom too, but the
	// conjunct they add to ωX is null ≺ pattern, a null-lowest fact we emit
	// as a unit below, so the stronger already-emitted clause stays
	// equivalent in context.
	for t := first; t < nT; t++ {
		to := in.Tuple(relation.TupleID(t))
		for a := 0; a < n; a++ {
			attr := relation.Attr(a)
			v := to[a]
			if v.IsNull() {
				continue
			}
			idx, known := e.ValueIndex(attr, v)
			if known && e.InADom(attr, idx) {
				continue
			}
			for _, cfd := range e.Spec.Gamma {
				for xi, xa := range cfd.X {
					if xa == attr && !relation.Equal(v, cfd.PX[xi]) {
						return false
					}
				}
			}
		}
	}

	// Mutation phase: register each appended tuple's values in the domains
	// and give it a domain-index row.
	newJoin := make([]map[int]bool, n)
	for t := first; t < nT; t++ {
		to := in.Tuple(relation.TupleID(t))
		rowStart := len(e.tixData)
		for a := 0; a < n; a++ {
			attr := relation.Attr(a)
			idx := e.addDomValue(attr, to[a])
			e.tixData = append(e.tixData, int32(idx))
			if !e.InADom(attr, idx) {
				e.joinADom(attr, idx)
				if newJoin[a] == nil {
					newJoin[a] = make(map[int]bool)
				}
				newJoin[a][idx] = true
			}
		}
		e.tix = append(e.tix, e.tixData[rowStart:len(e.tixData):len(e.tixData)])
	}
	for a := 0; a < n; a++ {
		for len(e.active[a]) < len(e.doms[a]) {
			e.active[a] = append(e.active[a], false)
		}
	}

	omegaMark := len(e.Omega)

	// Null-lowest facts for attributes whose active domain changed.
	for a := 0; a < n; a++ {
		attr := relation.Attr(a)
		ni, ok := e.ValueIndex(attr, relation.Null)
		if !ok || !e.InADom(attr, ni) {
			continue
		}
		if newJoin[a][ni] {
			// Null itself joined: it ranks below every other domain value.
			// Covering the full domain — not just adom, as Build does — also
			// discharges the null ≺ pattern conjunct that a re-encode would
			// add to CFD bodies over this attribute (see the pre-check); the
			// extra units are sound, null ranks lowest in every completion.
			for i := range e.doms[a] {
				if i != ni {
					e.addInstance(nil, OrderLit{attr, ni, i}, Source{SrcOrder, -1})
				}
			}
		} else {
			for _, i := range sortedKeys(newJoin[a]) {
				if i != ni {
					e.addInstance(nil, OrderLit{attr, ni, i}, Source{SrcOrder, -1})
				}
			}
		}
	}

	// Order facts from the new edges t ≼_A t_o.
	e.emitEdgeFacts()

	// Currency instances pairing each appended tuple with every tuple
	// before it (both directions) — covering old×new and new×new pairs.
	// Self-pairs and pairs among pre-existing tuples are already covered
	// (or vacuous).
	for ci, c := range e.Spec.Sigma {
		for nt := first; nt < nT; nt++ {
			ntID := relation.TupleID(nt)
			for t := 0; t < nt; t++ {
				e.instantiatePair(ci, c, relation.TupleID(t), ntID)
				e.instantiatePair(ci, c, ntID, relation.TupleID(t))
			}
		}
	}

	// CFD instances whose head ranges over newly joined values of B. ωX uses
	// the current active domains; the pre-check guarantees they only grew by
	// pattern-equal values, so existing instances' bodies are unaffected.
	for gi, cfd := range e.Spec.Gamma {
		if len(newJoin[cfd.B]) > 0 {
			e.emitCFD(gi, sortedKeys(newJoin[cfd.B]))
		}
	}

	// Values first mentioned by the delta instances need axiom coverage:
	// flag them active as they are found, remembering which are new.
	newVals := make([][]int, n)
	markNew := func(l OrderLit) {
		act := e.active[l.Attr]
		for _, i := range [2]int{l.A1, l.A2} {
			if !act[i] {
				act[i] = true
				newVals[l.Attr] = append(newVals[l.Attr], i)
			}
		}
	}
	for _, inst := range e.Omega[omegaMark:] {
		markNew(inst.Head)
		for _, l := range inst.Body {
			markNew(l)
		}
	}
	transCap := e.rules.opts.cap()
	for a := 0; a < n; a++ {
		if len(newVals[a]) > 0 && countFlags(e.active[a]) > transCap {
			return false // would cross into the sparse regime: rebuild
		}
	}
	for a := 0; a < n; a++ {
		if len(newVals[a]) > 0 {
			e.emitAxiomsDelta(relation.Attr(a), newVals[a])
		}
	}
	return true
}

// emitAxiomsDelta extends the full asymmetry/transitivity axioms of one
// attribute to newly active values (already flagged active): every pair and
// triple involving at least one new value is emitted; axioms among the old
// values already exist.
func (e *Encoding) emitAxiomsDelta(attr relation.Attr, newVals []int) {
	old := e.intBuf[:0]
	for i, on := range e.active[attr] {
		if on && !slices.Contains(newVals, i) {
			old = append(old, i)
		}
	}
	e.intBuf = old
	e.emitAxiomsOver(attr, old, newVals)
}

// emitAxiomsOver emits asymmetry for every unordered pair and transitivity
// for every ordered triple over old ∪ newVals that involves at least one
// new value. With an empty old set this is the full axiom emission; with
// the attribute's previously covered values it is exactly the delta.
func (e *Encoding) emitAxiomsOver(attr relation.Attr, old, newVals []int) {
	all := append(append(e.axAll[:0], old...), newVals...)
	e.axAll = all
	sort.Ints(all)
	if e.axNew == nil {
		e.axNew = make(map[int]bool, len(newVals))
	} else {
		clear(e.axNew)
	}
	isNew := e.axNew
	for _, v := range newVals {
		isNew[v] = true
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if !isNew[all[i]] && !isNew[all[j]] {
				continue
			}
			x := e.litRaw(attr, all[i], all[j])
			y := e.litRaw(attr, all[j], all[i])
			e.cnf.Add(x.Not(), y.Not())
		}
	}
	for _, a1 := range all {
		for _, a2 := range all {
			if a1 == a2 {
				continue
			}
			for _, a3 := range all {
				if a3 == a1 || a3 == a2 || (!isNew[a1] && !isNew[a2] && !isNew[a3]) {
					continue
				}
				e.cnf.Add(
					e.litRaw(attr, a1, a2).Not(),
					e.litRaw(attr, a2, a3).Not(),
					e.litRaw(attr, a1, a3))
			}
		}
	}
}

// FormatLit renders an order atom for diagnostics: "a1 <[attr] a2".
func (e *Encoding) FormatLit(l OrderLit) string {
	return fmt.Sprintf("%s <[%s] %s",
		e.doms[l.Attr][l.A1], e.Schema.Name(l.Attr), e.doms[l.Attr][l.A2])
}
