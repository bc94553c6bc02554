package conflictres

import "sync"

// Session drives the interactive resolution framework (Fig. 4) step by
// step. It is a LiveSession behind a mutex: one incremental encoding and one
// SAT solver for the entity's whole lifetime, each Apply an Se ⊕ Ot row
// delta rolled back on contradiction, and a spec bound from a rule set
// (NewSpecFromRules) served by that set's pooled pipeline until Close.
//
// Resolve remains the one-call loop; Session is for callers that mediate a
// real user conversation (ask, wait, apply, repeat) and for long-lived
// integrations that interleave deduction with other work.
//
// A Session is safe for concurrent use: every method holds an internal
// mutex, so calls from multiple goroutines serialize against each other and
// each call observes a consistent view. Multi-call sequences (for example
// Suggest followed by Apply) are NOT atomic as a unit — a server handing
// one session to several clients must add its own lock around such
// sequences (internal/server holds the live registry's entry lock).
type Session struct {
	mu sync.Mutex
	ls *LiveSession
}

// NewSession starts an incremental resolution session on the specification.
func NewSession(spec *Spec) (*Session, error) {
	return NewSessionMode(spec, ResolutionMode{})
}

// NewSessionMode is NewSession with an explicit resolution mode. The mode is
// sticky: it is fixed at creation, its trust overlay merges into the
// specification for every deduction and suggestion, and Result applies its
// strategy — mirroring how the HTTP session endpoints pin a mode per session.
func NewSessionMode(spec *Spec, mode ResolutionMode) (*Session, error) {
	ls, err := NewLiveSessionSpec(spec, mode)
	if err != nil {
		return nil, err
	}
	return &Session{ls: ls}, nil
}

// Valid reports whether the current specification (including all applied
// answers) has a valid completion. Validity gates every derived view:
// deduction on a spec that is UNSAT only under search would otherwise yield
// values read off an unsatisfiable formula.
func (s *Session) Valid() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.state.Valid
}

// Deduce returns the true values determined so far, keyed by attribute
// name. It returns nil when the current specification is invalid.
func (s *Session) Deduce() map[string]Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ls.state.Valid {
		return nil
	}
	out := make(map[string]Value, len(s.ls.deduced))
	for a, val := range s.ls.deduced {
		out[s.ls.sch.Name(a)] = val
	}
	return out
}

// Complete reports whether every attribute has a determined true value.
func (s *Session) Complete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.state.Valid && len(s.ls.deduced) == s.ls.sch.Len()
}

// Suggest computes the attribute set the user should confirm next, with
// candidate values. It fails when the current specification is invalid.
func (s *Session) Suggest() (Suggestion, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.Suggest()
}

// Apply folds user-validated true values, keyed by attribute name, into the
// session (Se ⊕ Ot). Values outside the data's active domain are allowed.
// If the input contradicts the specification, the session rolls back to its
// last consistent state (the framework's "revise" branch) and an error is
// returned.
func (s *Session) Apply(answers map[string]Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.Apply(answers)
}

// Interactions returns the number of successful Apply calls.
func (s *Session) Interactions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.interactions
}

// Stats returns the session's solver-reuse counters, including the work of
// any answer round Apply rolled back.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.SessionStats()
}

// Result snapshots the session as a Result, mirroring Resolve's output for
// the rounds driven so far: one initial automatic round plus one per
// successful Apply. Timing stays zero — the step-wise API leaves phase
// timing to the caller's own clock.
func (s *Session) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.Result()
}

// Close returns a pooled pipeline to its rule set. Result stays readable;
// Suggest and Apply fail afterwards. Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ls.Close()
}
