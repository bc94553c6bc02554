package encode

import (
	"math"
	"reflect"
	"slices"

	"conflictres/internal/constraint"
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

// Rules is the compiled, entity-independent part of the encoding of one
// rule set (Σ, Γ). It is immutable once compiled and shared read-only by
// every encoding built from it, standalone or through any number of
// Skeletons on any goroutines. It holds:
//
//   - the attributes each currency constraint references (projection keys);
//   - a guard index from each tᵢ[A] = c conjunct of Σ to the constraints
//     carrying it, so a build instantiates only the constraints whose guards
//     all match some active-domain value (the others yield no instance);
//   - whether two CFDs of Γ can ever emit the same instance, so CFD
//     instances skip deduplication when they cannot;
//   - per attribute, the ordered distinct CFD constants, so a build extends
//     the domains with them by slot instead of hashing each one.
type Rules struct {
	sigma []constraint.Currency
	gamma []constraint.CFD
	opts  Options
	arity int // width of the schema Σ and Γ were validated against; 0 if never validated

	refAttrs [][]relation.Attr // per Σ constraint

	guardOf   []map[valKey]int32 // per attribute: canonical guard constant -> guard id
	nanGuards []int32            // guards whose constant is NaN
	guardCons [][]int32          // per guard: the constraints carrying it, ascending
	needHits  []int32            // per Σ constraint: its distinct guards, or neverFires

	gammaUnique bool // no two CFDs can emit the same instance

	consts    [][]relation.Value // per attribute: distinct CFD constants, first-use order
	constSlot []map[valKey]int32 // per attribute: canonical constant -> index in consts
	cfdSlots  [][]int32          // per CFD: slot of each PX[i] in X[i]'s table, then VB's in B's
}

// neverFires marks a constraint with a null guard constant: a comparison
// with a null operand never holds during instantiation.
const neverFires = math.MaxInt32

// Compile builds the compiled part of a rule set. The constraint slices are
// retained (they are immutable values shared with the specifications built
// from them).
func Compile(sigma []constraint.Currency, gamma []constraint.CFD, opts Options) *Rules {
	r := &Rules{sigma: sigma, gamma: gamma, opts: opts}
	r.refAttrs = make([][]relation.Attr, len(sigma))
	for i, c := range sigma {
		r.refAttrs[i] = refAttrsOf(c)
	}
	r.compileGuards()
	r.compileConsts()
	r.gammaUnique = !gammaMayCollide(gamma)
	return r
}

// CompileFor is Compile for a rule set bound to a schema: it also validates
// Σ and Γ against sch once, so specifications that share the compiled
// slices skip that part of validation (see ValidateSpec). An invalid rule
// set compiles to an empty one that no specification bound to it matches:
// those specifications take full validation and report its errors.
func CompileFor(sch *relation.Schema, sigma []constraint.Currency, gamma []constraint.CFD, opts Options) *Rules {
	if model.ValidateRules(sch, sigma, gamma) != nil {
		return Compile(nil, nil, opts)
	}
	r := Compile(sigma, gamma, opts)
	r.arity = sch.Len()
	return r
}

// guard reports whether p is a guard tᵢ[A] = c (the constant on either
// side) and returns A and c.
func guard(p constraint.Pred) (relation.Attr, relation.Value, bool) {
	if p.Kind != constraint.PredCompare || p.Op != constraint.OpEq || p.L.Const == p.R.Const {
		return 0, relation.Null, false
	}
	if p.L.Const {
		return p.R.Attr, p.L.Literal, true
	}
	return p.L.Attr, p.R.Literal, true
}

// compileGuards builds the Σ guard index. A guard is keyed by its attribute
// and the canonical key of its constant, which collapses exactly the
// non-NaN values relation.Compare calls equal (int and float by numeric
// value, strings by content). NaN compares equal to every number, so a NaN
// constant's guard always counts as a hit (and a NaN data value hits every
// guard on its attribute, see selectSigma).
func (r *Rules) compileGuards() {
	r.needHits = make([]int32, len(r.sigma))
	var own []int32
	for ci, c := range r.sigma {
		own = own[:0]
		never := false
		for _, p := range c.Body {
			a, v, ok := guard(p)
			if !ok {
				continue
			}
			if v.IsNull() {
				never = true
				break
			}
			for len(r.guardOf) <= int(a) {
				r.guardOf = append(r.guardOf, nil)
			}
			if r.guardOf[a] == nil {
				r.guardOf[a] = make(map[valKey]int32, len(r.sigma))
			}
			k := canonKey(v)
			g, ok := r.guardOf[a][k]
			if !ok {
				g = int32(len(r.guardCons))
				r.guardOf[a][k] = g
				r.guardCons = append(r.guardCons, nil)
				if k.kind == kindNaN {
					r.nanGuards = append(r.nanGuards, g)
				}
			}
			if !slices.Contains(own, g) {
				own = append(own, g)
			}
		}
		if never {
			r.needHits[ci] = neverFires
			continue
		}
		r.needHits[ci] = int32(len(own))
		for _, g := range own {
			r.guardCons[g] = append(r.guardCons[g], int32(ci))
		}
	}
}

// compileConsts tabulates the CFD constants per attribute in the order a
// domain takes them: Γ order, each CFD's pattern values before its
// consequent, first occurrence of each canonical value.
func (r *Rules) compileConsts() {
	add := func(a relation.Attr, v relation.Value) int32 {
		for len(r.consts) <= int(a) {
			r.consts = append(r.consts, nil)
			r.constSlot = append(r.constSlot, nil)
		}
		if r.constSlot[a] == nil {
			r.constSlot[a] = make(map[valKey]int32, len(r.gamma))
		}
		k := canonKey(v)
		if s, ok := r.constSlot[a][k]; ok {
			return s
		}
		s := int32(len(r.consts[a]))
		r.consts[a] = append(r.consts[a], v)
		r.constSlot[a][k] = s
		return s
	}
	r.cfdSlots = make([][]int32, len(r.gamma))
	for gi, cfd := range r.gamma {
		slots := make([]int32, 0, len(cfd.X)+1)
		for i, a := range cfd.X {
			slots = append(slots, add(a, cfd.PX[i]))
		}
		r.cfdSlots[gi] = append(slots, add(cfd.B, cfd.VB))
	}
}

// gammaMayCollide reports whether two CFDs can ever emit the same instance
// ωX → b ≺v tp[B]. Equal heads need equal (B, V_B). Equal bodies then need
// the two patterns to agree on every attribute both X lists carry: ωX over
// one attribute with two different patterns is two disjoint literal sets,
// and neither is empty because an active domain never is. An attribute only
// one side carries contributes nothing once its active domain is just the
// pattern, so patterns that agree wherever they overlap can collide. The
// check is pairwise within each (B, V_B) group.
func gammaMayCollide(gamma []constraint.CFD) bool {
	type head struct {
		b  relation.Attr
		vb valKey
	}
	groups := make(map[head][]int, len(gamma))
	for gi, c := range gamma {
		h := head{c.B, canonKey(c.VB)}
		groups[h] = append(groups[h], gi)
	}
	for _, g := range groups {
		for i, gi := range g {
			for _, gj := range g[:i] {
				if patternsAgree(gamma[gi], gamma[gj]) {
					return true
				}
			}
		}
	}
	return false
}

// patternsAgree reports whether c and d carry the same pattern on every
// attribute both X lists contain.
func patternsAgree(c, d constraint.CFD) bool {
	for i, a := range c.X {
		if j := slices.Index(d.X, a); j >= 0 && canonKey(c.PX[i]) != canonKey(d.PX[j]) {
			return false
		}
	}
	return true
}

// sameSlice reports whether a and b are the same slice (same backing array
// start and length).
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// covers reports whether r was validated (CompileFor) against a schema as
// wide as spec's and spec shares r's Σ and Γ slices, so spec's constraints
// need no re-validation.
func (r *Rules) covers(spec *model.Spec) bool {
	return r != nil && r.arity > 0 && spec.TI != nil && spec.TI.Inst != nil &&
		spec.Schema().Len() == r.arity && sameSlice(spec.Sigma, r.sigma) && sameSlice(spec.Gamma, r.gamma)
}

// ValidateSpec is spec.Validate, without re-checking the constraints when r
// covers spec; the errors are the same. r may be nil.
func (r *Rules) ValidateSpec(spec *model.Spec) error {
	if r.covers(spec) {
		return spec.ValidateInstance()
	}
	return spec.Validate()
}

// Skeleton pairs a compiled rule set with one retained Encoding whose
// storage — interned value dictionaries, CNF clause arena, instance-body
// arena, dedup tables, marks — every Build reuses instead of re-allocating
// it per entity.
//
// A skeleton serves one goroutine and keeps exactly one encoding alive:
// calling Build invalidates every slice previously obtained from the
// encoding of the prior call (domains, CNF clauses, Ω bodies). The pooled
// resolve pipelines in the core package are the intended owner — one
// skeleton per pipeline, one pipeline per worker, all sharing one Rules.
type Skeleton struct {
	rules *Rules

	enc    *Encoding
	builds int
	reuses int

	// Memoized slice identities known to equal the skeleton's rule set:
	// specs bound from one compiled rule set share the Σ/Γ backing arrays,
	// and cloned/extended specs re-verify once by content.
	okSigma map[*constraint.Currency]bool
	okGamma map[*constraint.CFD]bool
}

// NewSkeleton compiles a rule set and starts a skeleton on it.
func NewSkeleton(sigma []constraint.Currency, gamma []constraint.CFD, opts Options) *Skeleton {
	return Compile(sigma, gamma, opts).NewSkeleton()
}

// NewSkeleton starts a skeleton on the compiled rule set, which it shares
// read-only with every other skeleton of r.
func (r *Rules) NewSkeleton() *Skeleton { return &Skeleton{rules: r} }

// Build compiles spec against the skeleton, reusing the retained encoding's
// storage. A spec whose Σ/Γ do not match the skeleton's rule set falls back
// to a standalone Build: the match is a pointer-identity fast path (specs
// bound from one compiled rule set share the constraint backing arrays)
// with a memoized deep comparison for cloned or extended specs.
func (k *Skeleton) Build(spec *model.Spec) *Encoding {
	k.builds++
	if !k.matches(spec) {
		return Build(spec, k.rules.opts)
	}
	if k.enc == nil {
		k.enc = &Encoding{}
	} else {
		k.reuses++
	}
	k.enc.init(k.rules, spec)
	return k.enc
}

// matchMemoCap bounds the memoized identity sets; past it, unknown slice
// identities pay the deep comparison each time (correct, just slower).
const matchMemoCap = 64

// matches reports whether spec's constraint sets are the skeleton's.
func (k *Skeleton) matches(spec *model.Spec) bool {
	r := k.rules
	if len(spec.Sigma) != len(r.sigma) || len(spec.Gamma) != len(r.gamma) {
		return false
	}
	if !sameSlice(spec.Sigma, r.sigma) && !k.okSigma[&spec.Sigma[0]] {
		if !reflect.DeepEqual(spec.Sigma, r.sigma) {
			return false
		}
		if k.okSigma == nil {
			k.okSigma = make(map[*constraint.Currency]bool)
		}
		if len(k.okSigma) < matchMemoCap {
			k.okSigma[&spec.Sigma[0]] = true
		}
	}
	if !sameSlice(spec.Gamma, r.gamma) && !k.okGamma[&spec.Gamma[0]] {
		if !reflect.DeepEqual(spec.Gamma, r.gamma) {
			return false
		}
		if k.okGamma == nil {
			k.okGamma = make(map[*constraint.CFD]bool)
		}
		if len(k.okGamma) < matchMemoCap {
			k.okGamma[&spec.Gamma[0]] = true
		}
	}
	return true
}

// Rules returns the compiled rule set the skeleton builds with.
func (k *Skeleton) Rules() *Rules { return k.rules }

// Options returns the encoder options the skeleton builds with.
func (k *Skeleton) Options() Options { return k.rules.opts }

// Stats reports how many Build calls the skeleton served and how many of
// them reused the retained encoding's storage (the remainder allocated from
// zero).
func (k *Skeleton) Stats() (builds, reuses int) { return k.builds, k.reuses }
