package conflictres

import (
	"fmt"
	"slices"

	"conflictres/internal/core"
	"conflictres/internal/encode"
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

// LiveOrder is one piece of currency information accompanying an upsert:
// tuple T1 is no more current than tuple T2 in the named attribute. Indices
// are positions in the entity's accumulated row log, in arrival order; they
// may reference rows appended by the same upsert.
type LiveOrder struct {
	Attr   string
	T1, T2 int
}

// LiveState is a self-contained snapshot of a live session's resolution
// outcome. Every field is copied out of the session's encoding when the
// snapshot is taken: encoding storage is recycled when the session's
// pipeline is reused (skeleton builds invalidate the previous encoding's
// slices), so the state must never alias it.
type LiveState struct {
	// Valid is false when the accumulated rows admit no valid completion;
	// Resolved and Tuple are then empty.
	Valid bool
	// Rows is the number of data tuples accumulated so far.
	Rows int
	// Resolved maps each determined attribute to its true value.
	Resolved map[Attr]Value
	// Tuple is the resolved current tuple (null where undetermined).
	Tuple Tuple
	// Extends counts upsert deltas applied incrementally to the loaded
	// formula; Rebuilds counts non-monotone deltas that forced a full
	// re-encode (the initial build is not counted).
	Extends  int
	Rebuilds int
}

func (st LiveState) clone() LiveState {
	out := st
	if st.Resolved != nil {
		out.Resolved = make(map[Attr]Value, len(st.Resolved))
		for a, v := range st.Resolved {
			out.Resolved[a] = v
		}
	}
	out.Tuple = st.Tuple.Clone()
	return out
}

// LiveDelta is one accepted change to a live session, as its row-log
// records it: data rows (with optional per-row source tags) and currency
// orders whose indices address the accumulated rows. The first delta opens
// the session; every later upsert and every answer round (Apply) appends
// one. Replaying a log against a fresh session reproduces the state.
type LiveDelta struct {
	Rows    []Tuple
	Sources []string
	Orders  []LiveOrder
}

// LiveSession keeps one entity's resolution state warm across deltas. It
// serves two loops on one engine:
//   - change-data capture: each Upsert folds new rows into the loaded
//     formula — incrementally when the delta is monotone, via automatic
//     re-encode otherwise;
//   - the interactive framework of Fig. 4: each Apply folds a round of user
//     answers in as Se ⊕ Ot, and Suggest asks for the next one.
//
// After every delta the resolved state is recomputed, so consumers always
// read a result consistent with everything seen so far.
//
// A session opened through a rule set (NewLiveSession, or NewLiveSessionSpec
// on a spec bound with NewSpecFromRules) holds a pooled pipeline (encoding
// skeleton + arena solver) checked out of the set for its whole lifetime;
// Close returns it. Sessions are not safe for concurrent use; the live
// registry serializes access per entity, and Session adds a mutex.
type LiveSession struct {
	rs    *RuleSet  // pool owner; nil for standalone sessions
	pl    *pipeline // nil: standalone, no pool to return to
	sch   *Schema
	sess  *core.Session
	state LiveState
	// od and deduced are the derived order and the true values it
	// determines behind state — the inputs Suggest needs; nil when invalid.
	od           *core.OrderSet
	deduced      map[Attr]Value
	interactions int
	log          []LiveDelta
	// stats are the engine counters as of the last call that did solver
	// work; they outlive Close, which must not race with readers of the
	// last snapshot.
	stats SessionStats
	// mode is the sticky resolution mode fixed at creation; its trust
	// overlay is merged into the session's specification and refresh applies
	// its strategy.
	mode ResolutionMode
}

// NewLiveSession opens a live session seeded with the entity's initial rows
// (at least one) and optional currency edges.
func (rs *RuleSet) NewLiveSession(rows []Tuple, orders []LiveOrder) (*LiveSession, error) {
	return rs.NewLiveSessionMode(rows, nil, orders, ResolutionMode{})
}

// NewLiveSessionMode is NewLiveSession with per-row source tags and an
// explicit resolution mode. sources, when non-nil, must parallel rows; empty
// entries leave the row untagged (weight 0 under any trust mapping). The mode
// is sticky for the session's lifetime, like the rule set itself.
func (rs *RuleSet) NewLiveSessionMode(rows []Tuple, sources []string, orders []LiveOrder, mode ResolutionMode) (*LiveSession, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("conflictres: live session needs at least one row")
	}
	if sources != nil && len(sources) != len(rows) {
		return nil, fmt.Errorf("conflictres: %d sources for %d rows", len(sources), len(rows))
	}
	in := relation.NewInstance(rs.schema)
	for i, r := range rows {
		src := ""
		if sources != nil {
			src = sources[i]
		}
		if _, err := in.AddSourced(r, src); err != nil {
			return nil, fmt.Errorf("conflictres: row %d: %w", i, err)
		}
	}
	edges, err := liveEdges(rs.schema, orders, in.Len())
	if err != nil {
		return nil, err
	}
	m := model.NewSpec(model.NewTemporal(in), rs.sigma, rs.gamma)
	m.Trust = rs.trust
	m.TI.Edges = edges
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return openLive(rs, m, mode, copyDelta(rows, sources, orders))
}

// NewLiveSessionSpec opens a live session on a specification under an
// explicit resolution mode. A spec bound with NewSpecFromRules runs on a
// pipeline from its rule set's pool, like NewLiveSession; any other spec
// builds a standalone encoding and solver.
func NewLiveSessionSpec(spec *Spec, mode ResolutionMode) (*LiveSession, error) {
	if spec == nil {
		return nil, fmt.Errorf("conflictres: live session needs a specification")
	}
	if err := spec.m.Validate(); err != nil {
		return nil, err
	}
	in := spec.m.TI.Inst
	first := LiveDelta{Sources: in.Sources()}
	for _, id := range in.TupleIDs() {
		first.Rows = append(first.Rows, in.Tuple(id))
	}
	sch := spec.Schema()
	for _, e := range spec.m.TI.Edges {
		first.Orders = append(first.Orders, LiveOrder{Attr: sch.Name(e.Attr), T1: int(e.T1), T2: int(e.T2)})
	}
	return openLive(spec.rules, spec.m, mode, first)
}

// openLive starts a live session on a validated specification: on a
// pipeline from rs's pool when rs is set, standalone otherwise.
func openLive(rs *RuleSet, m *model.Spec, mode ResolutionMode, first LiveDelta) (*LiveSession, error) {
	m, err := mode.effectiveSpec(m)
	if err != nil {
		return nil, err
	}
	ls := &LiveSession{rs: rs, sch: m.Schema(), mode: mode, log: []LiveDelta{first}}
	if rs != nil {
		ls.pl = rs.acquirePipeline()
		ls.sess = ls.pl.p.NewSession(m)
	} else {
		ls.sess = core.NewSession(m, encode.Options{})
	}
	ls.refresh()
	return ls, nil
}

// copyDelta records a delta in the row-log: copies of the slices, not
// aliases — callers' decode buffers are theirs to reuse.
func copyDelta(rows []Tuple, sources []string, orders []LiveOrder) LiveDelta {
	return LiveDelta{
		Rows:    append([]Tuple(nil), rows...),
		Sources: append([]string(nil), sources...),
		Orders:  append([]LiveOrder(nil), orders...),
	}
}

// errLiveClosed answers every mutating call on a closed session.
var errLiveClosed = fmt.Errorf("conflictres: live session is closed")

// Upsert folds new rows (and optional currency edges) into the session and
// recomputes the resolved state. It reports whether the delta was applied
// incrementally (false: a non-monotone delta forced a re-encode — same
// outcome, full rebuild cost).
//
// Rows that make the entity invalid are not rolled back: an observation
// contradicting the constraints is a legitimate entity state, surfaced as
// State().Valid == false and repaired by later rows or orders.
func (ls *LiveSession) Upsert(rows []Tuple, orders []LiveOrder) (bool, error) {
	return ls.UpsertSourced(rows, nil, orders)
}

// UpsertSourced is Upsert with per-row source tags; sources, when non-nil,
// must parallel rows. Source tags only influence trust scoring — they are
// not encoded into the solver's formula — so tagging composes with both the
// incremental and the rebuild extension path.
func (ls *LiveSession) UpsertSourced(rows []Tuple, sources []string, orders []LiveOrder) (bool, error) {
	extended, err := ls.extend(rows, sources, orders)
	if err != nil || (len(rows) == 0 && len(orders) == 0) {
		return extended, err
	}
	ls.log = append(ls.log, copyDelta(rows, sources, orders))
	ls.refresh()
	return extended, nil
}

// Apply folds one round of user-validated true values, keyed by attribute
// name, into the session: Se ⊕ Ot of Fig. 4, expressed as the row delta
// model.Spec.Extend describes — one user tuple carrying the answers plus an
// order from every earlier row to it in each answered attribute — and
// logged like any other delta. Values outside the data's active domain are
// allowed. Input that contradicts the specification is rolled back to the
// state before the round (the framework's "revise" branch) and an error is
// returned.
func (ls *LiveSession) Apply(answers map[string]Value) error {
	if ls.sess == nil {
		return errLiveClosed
	}
	if len(answers) == 0 {
		return nil
	}
	row := relation.NewTuple(ls.sch)
	attrs := make([]Attr, 0, len(answers))
	for name, v := range answers {
		a, ok := ls.sch.Attr(name)
		if !ok {
			return fmt.Errorf("conflictres: unknown attribute %q", name)
		}
		row[a] = v
		attrs = append(attrs, a)
	}
	slices.Sort(attrs)
	n := ls.state.Rows
	orders := make([]LiveOrder, 0, len(attrs)*n)
	for _, a := range attrs {
		for t := 0; t < n; t++ {
			orders = append(orders, LiveOrder{Attr: ls.sch.Name(a), T1: t, T2: n})
		}
	}
	prev := ls.sess.Spec() // extensions clone: prev stays the consistent state
	rows := []Tuple{row}
	if _, err := ls.extend(rows, nil, orders); err != nil {
		return err
	}
	if ok, _ := ls.sess.IsValid(); !ok {
		ls.sess.Rebuild(prev)
		ls.refresh()
		return fmt.Errorf("conflictres: input contradicts the specification; rolled back")
	}
	ls.interactions++
	ls.log = append(ls.log, LiveDelta{Rows: rows, Orders: orders})
	ls.refresh()
	return nil
}

// extend validates a delta and folds it into the loaded formula, reporting
// whether it applied incrementally. The state is left stale.
func (ls *LiveSession) extend(rows []Tuple, sources []string, orders []LiveOrder) (bool, error) {
	if ls.sess == nil {
		return false, errLiveClosed
	}
	if sources != nil && len(sources) != len(rows) {
		return false, fmt.Errorf("conflictres: %d sources for %d rows", len(sources), len(rows))
	}
	want := ls.sch.Len()
	for i, r := range rows {
		if len(r) != want {
			return false, fmt.Errorf("conflictres: row %d has %d values, schema has %d", i, len(r), want)
		}
	}
	before := ls.state.Rows
	edges, err := liveEdges(ls.sch, orders, before+len(rows))
	if err != nil {
		return false, err
	}
	extended := ls.sess.ExtendRows(rows, edges)
	in := ls.sess.Spec().TI.Inst
	for i, src := range sources {
		if src != "" {
			in.SetSource(relation.TupleID(before+i), src)
		}
	}
	return extended, nil
}

// Suggest runs Algorithm Suggest (Fig. 7) on the current state: the
// attributes the user should confirm next, with candidate values. It fails
// when the accumulated specification is invalid.
func (ls *LiveSession) Suggest() (Suggestion, error) {
	if ls.sess == nil {
		return Suggestion{}, errLiveClosed
	}
	if ls.od == nil {
		return Suggestion{}, fmt.Errorf("conflictres: specification is invalid")
	}
	sug := ls.sess.Suggest(ls.od, ls.deduced)
	ls.stats = ls.sess.Stats()
	return sug, nil
}

// Result reports the session as a Result, mirroring Resolve's output for
// the rounds driven so far: one initial automatic round plus one per
// successful Apply. Timing stays zero — the step-wise API leaves phase
// timing to the caller's own clock. Like State, it stays readable after
// Close.
func (ls *LiveSession) Result() *Result {
	st := ls.State()
	if st.Resolved == nil {
		st.Resolved = make(map[Attr]Value)
	}
	return &Result{
		Valid:        st.Valid,
		Tuple:        st.Tuple,
		Resolved:     st.Resolved,
		Rounds:       ls.interactions + 1,
		Interactions: ls.interactions,
		Session:      ls.SessionStats(),
		schema:       ls.sch,
	}
}

// State returns the resolution snapshot for all rows seen so far. The
// snapshot is an independent copy; it stays stable across later upserts and
// across Close.
func (ls *LiveSession) State() LiveState { return ls.state.clone() }

// Rows returns the number of data tuples accumulated so far.
func (ls *LiveSession) Rows() int { return ls.state.Rows }

// Schema returns the schema the session's rows follow.
func (ls *LiveSession) Schema() *Schema { return ls.sch }

// Log returns the session's row-log: every accepted delta in order, from
// the one that opened it. The slice aliases session state; serialize it
// before the next delta and don't retain it.
func (ls *LiveSession) Log() []LiveDelta { return ls.log }

// Spec returns an independent copy of the accumulated specification — every
// row and edge seen so far. Resolving it from scratch must agree with
// State() byte for byte; the differential suite pins this.
func (ls *LiveSession) Spec() *Spec {
	if ls.sess == nil {
		return nil
	}
	return &Spec{m: ls.sess.Spec().Clone()}
}

// SessionStats exposes the underlying engine counters (rebuilds include the
// initial build and any rolled-back answer round). They stay readable after
// Close.
func (ls *LiveSession) SessionStats() SessionStats { return ls.stats }

// Close returns the session's pipeline to the rule set's pool. The last
// snapshot remains readable via State and Result; every other method fails.
// Close is idempotent.
func (ls *LiveSession) Close() {
	if ls.pl != nil {
		// state was copied out of the encoding by refresh(); once the
		// pipeline is back in the pool its skeleton may rebuild and recycle
		// the encoding's storage under a different entity.
		ls.rs.releasePipeline(ls.pl)
		ls.pl = nil
	}
	ls.sess, ls.od = nil, nil
}

// refresh recomputes the copied-out state snapshot from the session. The
// derived order is the Fig. 5 fixpoint of the accumulated specification
// (core.Session.DeduceOrder), so the state matches a from-scratch
// resolution of the same rows whatever searches ran before.
func (ls *LiveSession) refresh() {
	st := LiveState{Rows: ls.sess.Spec().TI.Inst.Len()}
	ls.od, ls.deduced = nil, nil
	if ok, _ := ls.sess.IsValid(); ok {
		if od, ok := ls.sess.DeduceOrder(); ok {
			enc := ls.sess.Encoding()
			ls.od, ls.deduced = od, core.TrueValues(enc, od)
			st.Valid = true
			if fr, ok := fastResolve(ls.sess.Spec(), ls.mode.Strategy); ok {
				// Degenerate strategy on a constraint-free entity: closed-
				// form pick. fastResolve builds fresh maps and tuples, so the
				// snapshot cannot alias encoding storage.
				st.Resolved, st.Tuple = fr.Resolved, fr.Tuple
			} else {
				st.Resolved = ls.deduced
				st.Tuple = relation.NewTuple(ls.sch)
				for a, v := range st.Resolved {
					st.Tuple[a] = v
				}
				// Trust preference layer: fill still-open attributes of the
				// current tuple from the most trusted surviving candidates.
				for a, v := range core.TrustFill(enc, od, st.Resolved) {
					st.Tuple[a] = v
				}
			}
		}
	}
	ls.stats = ls.sess.Stats()
	st.Extends = ls.stats.Extends
	st.Rebuilds = ls.stats.Rebuilds - 1 // the initial build is not a fallback
	ls.state = st
}

// liveEdges validates and converts wire-level orders against a row count.
func liveEdges(sch *Schema, orders []LiveOrder, total int) ([]model.OrderEdge, error) {
	if len(orders) == 0 {
		return nil, nil
	}
	edges := make([]model.OrderEdge, 0, len(orders))
	for i, o := range orders {
		a, ok := sch.Attr(o.Attr)
		if !ok {
			return nil, fmt.Errorf("conflictres: order %d: unknown attribute %q", i, o.Attr)
		}
		if o.T1 < 0 || o.T2 < 0 || o.T1 >= total || o.T2 >= total {
			return nil, fmt.Errorf("conflictres: order %d: tuple index out of range: %d, %d (rows=%d)",
				i, o.T1, o.T2, total)
		}
		edges = append(edges, model.OrderEdge{
			Attr: a,
			T1:   relation.TupleID(o.T1),
			T2:   relation.TupleID(o.T2),
		})
	}
	return edges, nil
}
