package core

import (
	"time"

	"conflictres/internal/encode"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// SessionStats reports how much work one resolution session amortized
// across the framework's phases and rounds. The server surfaces the sums in
// /metrics.
type SessionStats struct {
	// Rebuilds counts full encode-and-load cycles: the initial build plus
	// any ⊕ Ot step that was not expressible as incremental clause addition.
	Rebuilds int
	// Extends counts ⊕ Ot steps applied as incremental clause additions to
	// the live solver (no re-encode, no reload).
	Extends int
	// Solves counts SAT queries answered by the session's solver across all
	// phases — validity, deduction, implication and suggestion probes.
	Solves int64
	// ClausesLoaded counts clauses attached to the session's solvers,
	// including full re-loads on rebuild. The from-scratch pipeline pays
	// |Φ| per phase per round; a session pays |Φ| once plus the deltas.
	ClausesLoaded int
}

// Session is an incremental resolution engine for one entity: it owns a
// single encoding and a single CDCL solver and serves every phase of the
// framework of Fig. 4 against that shared state. Validity is a root solve
// whose model seeds deduction; NaiveDeduce and Implies are assumption
// queries reusing all learned clauses; Se ⊕ Ot extends the loaded formula
// in place (an order edge is one unit clause) instead of re-encoding and
// reloading the specification each round.
//
// A Session is not safe for concurrent use; resolve each entity on one
// goroutine (the batch and dataset layers already shard by entity).
type Session struct {
	enc    *encode.Encoding
	opts   encode.Options
	solver *sat.Solver
	pipe   *Pipeline // non-nil: skeleton builds + pooled solver reuse
	loaded int       // prefix of enc.CNF().Clauses attached to solver

	// fixpoint snapshots the solver's level-0 trail right after clause
	// loading, before any search: at round 0 this is exactly the unit
	// propagation fixpoint of Φ(Se) — the one-literal clauses of Fig. 5 —
	// so DeduceOrder agrees with the from-scratch algorithm. After a search
	// it may also carry learned units: still consequences of Φ, so later
	// rounds deduce at least as much, never unsoundly more.
	fixpoint   []sat.Lit
	consistent bool

	validKnown bool
	valid      bool
	model      []bool

	rebuilds      int
	extends       int
	clausesLoaded int
	phases        Timing // Encode and Load only
	// solveBase is the solver's lifetime Solves counter when this session
	// acquired it; solver Stats are cumulative across Reset, so the
	// session's own query count is the difference.
	solveBase int64
}

// NewSession compiles the specification and loads it into a fresh solver.
// The specification must already be structurally valid (Spec.Validate).
func NewSession(spec *model.Spec, opts encode.Options) *Session {
	s := &Session{opts: opts}
	s.install(s.buildEncoding(spec))
	return s
}

// NewSessionFromEncoding wraps an already-built encoding. The session takes
// ownership: the encoding must not be mutated or extended by other callers.
func NewSessionFromEncoding(enc *encode.Encoding, opts encode.Options) *Session {
	s := &Session{opts: opts}
	s.install(enc)
	return s
}

// install points the session at a (re)built encoding and loads the full
// formula into the session's solver, Reset for reuse. The solver is
// acquired once per session — the pipeline's pooled instance or a fresh
// one — and kept across rebuilds; solver Stats accumulate across Reset, so
// no snapshot is needed when the formula is replaced.
func (s *Session) install(enc *encode.Encoding) {
	s.enc = enc //crlint:ignore encodingalias the session is its skeleton's single live consumer; install replaces enc on every rebuild
	if s.solver == nil {
		if s.pipe != nil {
			s.solver = s.pipe.solver
		} else {
			s.solver = sat.New()
		}
		s.solveBase = s.solver.Stats.Solves
	}
	s.solver.Reset()
	s.loaded = 0
	s.rebuilds++
	s.validKnown = false
	s.model = nil
	s.sync()
}

// buildEncoding compiles a specification through the pipeline's skeleton
// when one is attached, standalone otherwise.
func (s *Session) buildEncoding(spec *model.Spec) *encode.Encoding {
	start := time.Now()
	defer func() { s.phases.Encode += time.Since(start) }()
	if s.pipe != nil {
		return s.pipe.skel.Build(spec)
	}
	return encode.Build(spec, s.opts)
}

// sync attaches clauses appended to the encoding since the last load (delta
// only) and refreshes the propagation-fixpoint snapshot.
func (s *Session) sync() {
	cnf := s.enc.CNF()
	if s.loaded < len(cnf.Clauses) || s.solver.NumVars() < cnf.NVars {
		start := time.Now()
		cnf.AppendInto(s.solver, s.loaded)
		s.clausesLoaded += len(cnf.Clauses) - s.loaded
		s.loaded = len(cnf.Clauses)
		s.validKnown = false
		s.model = nil
		s.fixpoint = s.solver.Assigned()
		s.phases.Load += time.Since(start)
	}
	s.consistent = s.solver.Okay()
}

// Encoding returns the session's current encoding. It changes identity on
// rebuild, so callers must re-fetch it after Extend.
func (s *Session) Encoding() *encode.Encoding { return s.enc }

// Spec returns the session's current specification, including every ⊕ Ot
// extension applied so far.
func (s *Session) Spec() *model.Spec { return s.enc.Spec }

// Stats returns the session's reuse counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Rebuilds:      s.rebuilds,
		Extends:       s.extends,
		Solves:        s.solver.Stats.Solves - s.solveBase,
		ClausesLoaded: s.clausesLoaded,
	}
}

// IsValid reports whether the current specification is valid (Φ(Se)
// satisfiable, Lemma 5) with the satisfying model when so. The verdict and
// model are cached until the formula changes, so validity checking and
// model-seeded deduction share one root solve.
func (s *Session) IsValid() (bool, []bool) {
	s.sync()
	if !s.consistent {
		return false, nil
	}
	if !s.validKnown {
		s.validKnown = true
		s.valid = s.solver.Solve() == sat.StatusSat
		if s.valid {
			s.model = s.solver.Model()
		} else {
			s.model = nil
		}
		s.consistent = s.solver.Okay()
	}
	if !s.valid {
		return false, nil
	}
	return true, append([]bool(nil), s.model...)
}

// DeduceOrder implements the algorithm of Fig. 5 against the session state:
// the derived order is read off the solver's level-0 trail snapshot — no
// solver construction, no clause reload, no search.
func (s *Session) DeduceOrder() (*OrderSet, bool) {
	s.sync()
	if !s.consistent {
		return NewOrderSet(), false
	}
	return orderFromTrail(s.enc, s.fixpoint), true
}

// DeduceOrderExact is DeduceOrder pinned to the canonical Fig. 5 fixpoint:
// the derived order is recomputed by pure unit propagation over the
// session's current formula instead of read off the solver's trail. The
// trail snapshot is exact at round 0 but may carry learned units after
// searches; the live upsert path byte-compares its outcomes against
// from-scratch resolution after every delta, so it deduces from the
// propagation fixpoint a fresh build would produce. Costs one pass-to-
// fixpoint over Φ(Se) — no solver construction, no search.
func (s *Session) DeduceOrderExact() (*OrderSet, bool) {
	s.sync()
	if !s.consistent {
		return NewOrderSet(), false
	}
	lits, ok := propagationFixpoint(s.enc.CNF())
	if !ok {
		return NewOrderSet(), false
	}
	return orderFromTrail(s.enc, lits), true
}

// NaiveDeduce is the exact per-variable deduction of Section V-B served by
// the shared solver: the cached validity model prunes half the coNP queries
// (a literal can only be implied if it holds in the model), and every
// query reuses all clauses learned by its predecessors.
func (s *Session) NaiveDeduce() (*OrderSet, bool) {
	od := NewOrderSet()
	valid, model := s.IsValid()
	if !valid {
		return od, false
	}
	for v := 0; v < s.enc.NumVars(); v++ {
		vr := sat.Var(v)
		if model[v] {
			if s.solver.Solve(sat.NegLit(vr)) == sat.StatusUnsat {
				od.Add(s.enc.Pair(vr))
			}
		} else {
			if s.solver.Solve(sat.PosLit(vr)) == sat.StatusUnsat {
				p := s.enc.Pair(vr)
				p.A1, p.A2 = p.A2, p.A1
				od.Add(p)
			}
		}
	}
	return od, true
}

// Implies decides Se |= a1 ≺v a2 (Lemma 6) as one assumption query against
// the session solver.
func (s *Session) Implies(l encode.OrderLit) bool {
	s.sync()
	if !s.consistent {
		return true // inconsistent Φ implies everything
	}
	lit, ok := s.enc.LitFor(l)
	if !ok {
		return false // unconstrained atom: some completion orders it either way
	}
	return s.solver.Solve(lit.Not()) == sat.StatusUnsat
}

// ImpliesEdge is Implies for a tuple-level order edge t1 ≼_A t2.
func (s *Session) ImpliesEdge(edge model.OrderEdge) bool {
	return impliesEdgeWith(s.enc, edge, s.Implies)
}

// Suggest runs Algorithm Suggest (Fig. 7) with its clique-repair MaxSAT
// probes served by the session solver instead of a freshly loaded one.
func (s *Session) Suggest(od *OrderSet, resolved map[relation.Attr]relation.Value) Suggestion {
	return suggestWith(s.enc, od, resolved, s)
}

// Diagnose computes a subset-minimal conflicting core for the session's
// current (invalid) specification. The minimization runs on its own
// selector-guarded solver — instance clauses must be soft there, while the
// session solver holds them hard.
func (s *Session) Diagnose() (Conflict, bool) {
	s.sync()
	return Diagnose(s.enc)
}

// Extend folds user-validated true values into the session (Se ⊕ Ot,
// Fig. 4): incrementally when possible — new facts, instances and axioms
// are appended to the live formula — falling back to a full re-encode when
// the delta is not monotone (see encode.ExtendAnswers). It reports whether
// the step was incremental.
//
// If the input contradicts the specification, the session stays loaded and
// IsValid turns false; callers roll back by discarding the round (the
// framework's "revise" branch keeps the previous round's results).
func (s *Session) Extend(answers map[relation.Attr]relation.Value) bool {
	if len(answers) == 0 {
		return true
	}
	start := time.Now()
	ok := s.enc.ExtendAnswers(answers)
	s.phases.Encode += time.Since(start)
	if ok {
		s.extends++
		s.sync()
		return true
	}
	// Non-monotone delta: e.Spec already carries the extension; rebuild.
	s.install(s.buildEncoding(s.enc.Spec))
	return false
}

// ExtendRows folds new data tuples (and optionally new order edges) into
// the session — the change-data-capture step: incrementally via
// encode.ExtendRows when the delta is monotone, falling back to a full
// re-encode otherwise. It reports whether the step was incremental.
//
// Unlike Extend, contradictory rows are not rolled back: new observations
// that make the specification invalid are a legitimate entity state
// (IsValid turns false), to be surfaced rather than discarded.
func (s *Session) ExtendRows(rows []relation.Tuple, edges []model.OrderEdge) bool {
	if len(rows) == 0 && len(edges) == 0 {
		return true
	}
	start := time.Now()
	ok := s.enc.ExtendRows(rows, edges)
	s.phases.Encode += time.Since(start)
	if ok {
		s.extends++
		s.sync()
		return true
	}
	// Non-monotone delta: e.Spec already carries the extension; rebuild.
	s.install(s.buildEncoding(s.enc.Spec))
	return false
}
