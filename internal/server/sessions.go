package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"conflictres"
	"conflictres/internal/live"
	"conflictres/internal/relation"
)

// Session-specific error codes (see the errorJSON envelope).
const (
	// codeSessionNotFound answers requests for ids that never existed,
	// expired past the TTL, or were evicted under the capacity cap — the
	// three are indistinguishable on purpose (ids are opaque).
	codeSessionNotFound = "session_not_found"
	// codeSessionBusy answers an answer request that raced another in-flight
	// request (an apply, or a state snapshot) on the same session: the loser
	// gets 409 instead of silently queueing.
	codeSessionBusy = "session_busy"
	// codeContradiction answers an apply whose Ot contradicts the
	// specification; the session rolled back to its last consistent state.
	codeContradiction = "contradiction"
)

// sessionRegistry holds the interactive sessions: a live.Registry instance
// keyed by session id, sized by SessionCap and SessionTTL. Each session is
// a live entity whose first delta is the created entity and whose later
// deltas are answer rounds.
type sessionRegistry struct{ *live.Registry }

// sessionEntry is one session as the handlers see it.
type sessionEntry struct {
	id string
	// mu is the registry entry: its lock serializes every request on the
	// session against the others and against eviction, expiry and removal.
	// The answer handler uses TryLock so a second concurrent apply gets 409
	// instead of silently queueing behind the first.
	mu   *live.Entry
	sess *conflictres.LiveSession
	// entityID echoes the create request's entity id in every state response.
	entityID string
}

// Get resolves id to its session, refreshing its TTL clock and LRU
// position. Unknown, expired and evicted ids all report absent — the caller
// answers 404 either way; ids are opaque, so the distinction is not
// observable remotely anyway.
func (r sessionRegistry) Get(id string) (*sessionEntry, bool) {
	e, ok := r.Entry(id)
	if !ok {
		return nil, false
	}
	return &sessionEntry{id: id, mu: e, sess: e.Session(), entityID: e.Label()}, true
}

// Counters reports the registry's lifecycle counters.
func (r sessionRegistry) Counters() live.Counters { return r.CountersSnapshot() }

// newSessionID returns an opaque, unguessable session id.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; there is no sane
		// fallback that keeps ids unguessable.
		panic("server: crypto/rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// sessionCreateRequest is the body of POST /v1/session: the same rule set +
// entity shape as /v1/resolve. The whole interactive loop then runs against
// the stored session without ever re-sending the entity.
type sessionCreateRequest struct {
	ruleSetJSON
	Entity entityJSON `json:"entity"`
	// Mode selects the resolution strategy, sticky for the session's whole
	// lifetime (like the rule set); unknown names answer 400 "unknown_mode".
	Mode string `json:"mode,omitempty"`
}

// sessionAnswerRequest is the body of POST /v1/session/{id}/answer: the
// user-validated true values Ot, keyed by attribute name. Values use the
// same scalar JSON forms as entity tuples (null, string, number).
type sessionAnswerRequest struct {
	Answers map[string]json.RawMessage `json:"answers"`
}

// suggestionJSON is one Fig. 7 suggestion on the wire: the attributes the
// user should confirm next, their candidate values, and the attributes that
// become derivable once they are confirmed.
type suggestionJSON struct {
	Attrs      []string         `json:"attrs"`
	Candidates map[string][]any `json:"candidates,omitempty"`
	Derivable  []string         `json:"derivable,omitempty"`
}

// sessionStateJSON is the session's current state, returned by every
// session endpoint: create, get, and answer.
type sessionStateJSON struct {
	Session  string `json:"session"`
	EntityID string `json:"entityId,omitempty"`
	Valid    bool   `json:"valid"`
	// Complete reports whether every attribute has a determined true value;
	// when false, Suggestion carries the next Fig. 7 request for input.
	Complete     bool            `json:"complete"`
	Resolved     map[string]any  `json:"resolved,omitempty"`
	Tuple        []any           `json:"tuple,omitempty"`
	Suggestion   *suggestionJSON `json:"suggestion,omitempty"`
	Rounds       int             `json:"rounds"`
	Interactions int             `json:"interactions"`
}

func encodeSuggestion(sch *conflictres.Schema, sug conflictres.Suggestion) *suggestionJSON {
	out := &suggestionJSON{}
	for _, a := range sug.Attrs {
		out.Attrs = append(out.Attrs, sch.Name(a))
	}
	if len(sug.Candidates) > 0 {
		out.Candidates = make(map[string][]any, len(sug.Candidates))
		for a, vals := range sug.Candidates {
			enc := make([]any, len(vals))
			for i, v := range vals {
				enc[i] = encodeValue(v)
			}
			out.Candidates[sch.Name(a)] = enc
		}
	}
	for _, a := range sug.Derivable {
		out.Derivable = append(out.Derivable, sch.Name(a))
	}
	return out
}

// encodeSessionState snapshots one session as its wire state. Callers must
// hold e.mu so the snapshot cannot interleave with a concurrent apply.
func encodeSessionState(e *sessionEntry) *sessionStateJSON {
	sch := e.sess.Schema()
	res := e.sess.Result()
	out := &sessionStateJSON{
		Session:      e.id,
		EntityID:     e.entityID,
		Valid:        res.Valid,
		Rounds:       res.Rounds,
		Interactions: res.Interactions,
	}
	if !res.Valid {
		return out
	}
	out.Resolved = make(map[string]any, len(res.Resolved))
	for a, v := range res.Resolved {
		out.Resolved[sch.Name(a)] = encodeValue(v)
	}
	out.Tuple = make([]any, len(res.Tuple))
	for i, v := range res.Tuple {
		out.Tuple[i] = encodeValue(v)
	}
	out.Complete = res.Complete()
	if !out.Complete {
		if sug, err := e.sess.Suggest(); err == nil && len(sug.Attrs) > 0 {
			out.Suggestion = encodeSuggestion(sch, sug)
		}
	}
	return out
}

// handleSessionCreate is POST /v1/session: compile the rules, bind the
// entity, open a live session on the rule set's pooled pipeline, and return
// its id with the initial state — validity, the values deduced
// automatically, and the first suggestion. This is the one request in the
// loop that pays an encode.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.met.sessionRequests.Add(1)
	var req sessionCreateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	rules, _, err := s.compileRules(&req.ruleSetJSON)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRules, err.Error())
		return
	}
	mode, ok := s.parseMode(w, req.Mode)
	if !ok {
		return
	}
	spec, err := bindEntity(rules, &req.Entity)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadEntity, err.Error())
		return
	}
	rulesWire, err := json.Marshal(&req.ruleSetJSON)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRules, err.Error())
		return
	}
	s.met.observeMode(mode.Strategy)
	type created struct {
		e     *sessionEntry
		state *sessionStateJSON
		err   error
	}
	// The solver work (validity root-solve, deduction, first suggestion)
	// runs under the per-entity deadline; a timed-out build is abandoned
	// before the session is ever registered (its pipeline is dropped, not
	// returned to the pool).
	out, err := runTimed(r.Context(), s.cfg.Timeout, nil, func() created {
		ls, err := conflictres.NewLiveSessionSpec(spec, mode)
		if err != nil {
			return created{err: err}
		}
		e := &sessionEntry{sess: ls, entityID: req.Entity.ID}
		return created{e: e, state: encodeSessionState(e)}
	})
	if err != nil {
		s.writeError(w, http.StatusGatewayTimeout, codeTimeout, err.Error())
		return
	}
	if out.err != nil {
		s.writeError(w, http.StatusInternalServerError, codeResolveFail, out.err.Error())
		return
	}
	// Register only after the state snapshot: the id is unknown to any
	// other client until this response reveals it, so no lock is needed.
	id := newSessionID()
	if err := s.sessions.Add(id, rules, out.e.sess, live.Op{
		Mode: mode, RulesWire: rulesWire, Label: req.Entity.ID,
	}); err != nil {
		status, code := liveErrStatus(err)
		s.writeError(w, status, code, err.Error())
		return
	}
	out.state.Session = id
	writeJSON(w, out.state)
}

// sessionByPath resolves the {id} path segment to a live session, answering
// 404 for unknown, expired, or evicted ids.
func (s *Server) sessionByPath(w http.ResponseWriter, r *http.Request) (*sessionEntry, bool) {
	e, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		s.sessionNotFound(w, r)
	}
	return e, ok
}

func (s *Server) sessionNotFound(w http.ResponseWriter, r *http.Request) {
	s.writeError(w, http.StatusNotFound, codeSessionNotFound,
		fmt.Sprintf("no live session %q: unknown id, expired, or evicted", r.PathValue("id")))
}

// handleSessionGet is GET /v1/session/{id}: the current state, recomputing
// nothing that the session already has cached.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s.met.sessionRequests.Add(1)
	e, ok := s.sessionByPath(w, r)
	if !ok {
		return
	}
	e.mu.Lock()
	if e.mu.Closed() {
		// Evicted or expired while this request waited for the lock.
		e.mu.Unlock()
		s.sessionNotFound(w, r)
		return
	}
	state, err := runTimed(r.Context(), s.cfg.Timeout, func() { e.mu.Unlock() }, func() *sessionStateJSON {
		return encodeSessionState(e)
	})
	if err != nil {
		s.writeError(w, http.StatusGatewayTimeout, codeTimeout, err.Error())
		return
	}
	writeJSON(w, state)
}

// handleSessionAnswer is POST /v1/session/{id}/answer: fold the user's
// validated values into the session (Se ⊕ Ot), re-deduce incrementally on
// the live solver, and return the new state with the next suggestion. A
// request racing another in-flight request on the same session answers 409;
// input that contradicts the specification answers 422 and leaves the
// session at its last consistent state (the framework's "revise" branch).
//
// Timeout semantics: the solver is not preemptible, so a 504 abandons the
// response but NOT the apply — it keeps running and may still commit, with
// the entry lock held until it finishes. The recovery protocol is to GET
// the session (which blocks on that lock, i.e. waits the apply out) and
// inspect `interactions` to decide whether the answer landed before
// re-sending. Documented in docs/OPERATIONS.md.
func (s *Server) handleSessionAnswer(w http.ResponseWriter, r *http.Request) {
	s.met.sessionRequests.Add(1)
	e, ok := s.sessionByPath(w, r)
	if !ok {
		return
	}
	var req sessionAnswerRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Answers) == 0 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, `body needs "answers": {attr: value, ...}`)
		return
	}
	sch := e.sess.Schema()
	answers := make(map[string]conflictres.Value, len(req.Answers))
	for name, raw := range req.Answers {
		if _, ok := sch.Attr(name); !ok {
			s.writeError(w, http.StatusBadRequest, codeBadEntity, fmt.Sprintf("unknown attribute %q", name))
			return
		}
		v, err := relation.FromJSONScalar(raw)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, codeBadEntity, fmt.Sprintf("attribute %s: %v", name, err))
			return
		}
		answers[name] = v
	}
	if !e.mu.TryLock() {
		s.writeError(w, http.StatusConflict, codeSessionBusy,
			"another request is in progress on this session; retry when it completes")
		return
	}
	if e.mu.Closed() {
		e.mu.Unlock()
		s.sessionNotFound(w, r)
		return
	}
	type applied struct {
		state *sessionStateJSON
		err   error
	}
	out, err := runTimed(r.Context(), s.cfg.Timeout, func() { e.mu.Unlock() }, func() applied {
		// A successful round lands in the session's row-log, which is what
		// SnapshotSessions serializes.
		if err := e.sess.Apply(answers); err != nil {
			return applied{err: err}
		}
		return applied{state: encodeSessionState(e)}
	})
	if err != nil {
		s.writeError(w, http.StatusGatewayTimeout, codeTimeout, err.Error())
		return
	}
	if out.err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, codeContradiction, out.err.Error())
		return
	}
	writeJSON(w, out.state)
}

// handleSessionDelete is DELETE /v1/session/{id}: drop the session (after
// any in-flight answer drains) and return its pooled pipeline. Expired and
// unknown ids answer 404; deleting twice is a client error the second time.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.met.sessionRequests.Add(1)
	if !s.sessions.Remove(r.PathValue("id")) {
		s.sessionNotFound(w, r)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
