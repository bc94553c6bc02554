package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"conflictres"
)

// Error codes carried in the structured error envelope.
const (
	codeBadRequest  = "bad_request"
	codeBadRules    = "invalid_rules"
	codeBadEntity   = "invalid_entity"
	codeUnknownMode = "unknown_mode"
	codeTooLarge    = "body_too_large"
	codeTimeout     = "timeout"
	codeResolveFail = "resolve_failed"
)

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.met.errorResponses.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]*errorJSON{"error": {Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeBody decodes a size-limited JSON request body, distinguishing
// oversized bodies from malformed ones.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}

// compileWireRules compiles a wire rule set into a rule set, with no cache
// involvement; it is the pure codec path (also the fuzzing surface).
func compileWireRules(rs *ruleSetJSON) (*conflictres.RuleSet, error) {
	sch, err := conflictres.NewSchema(rs.Schema...)
	if err != nil {
		return nil, err
	}
	return conflictres.CompileRulesTrust(sch, rs.Currency, rs.CFDs, rs.Trust)
}

// parseMode maps a wire mode name onto a resolution mode, answering 400 with
// the structured "unknown_mode" code on names no strategy claims. The empty
// name is the default SAT strategy.
func (s *Server) parseMode(w http.ResponseWriter, name string) (conflictres.ResolutionMode, bool) {
	strat, err := conflictres.ParseStrategy(name)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeUnknownMode, err.Error())
		return conflictres.ResolutionMode{}, false
	}
	return conflictres.ResolutionMode{Strategy: strat}, true
}

// compileRules returns the compiled rule set for a wire rule set and its
// rulesKey, consulting the rule cache so identical (schema, Σ, Γ, trust)
// parse only once server-wide. The key is computed once per request and
// heads every specKey of the request's entities.
func (s *Server) compileRules(rs *ruleSetJSON) (*conflictres.RuleSet, cacheKey, error) {
	key := rulesKey(rs)
	if v, ok := s.rules.get(key); ok {
		return v.(*conflictres.RuleSet), key, nil
	}
	rules, err := compileWireRules(rs)
	if err != nil {
		return nil, key, err
	}
	s.rules.put(key, rules)
	return rules, key, nil
}

// runTimed executes f under the server's per-entity deadline. The solver is
// not preemptible, so an expired deadline abandons the goroutine; done (may
// be nil) is called exactly when f actually finishes, letting callers tie
// pool slots to real work rather than to the wrapper's return.
func runTimed[T any](ctx context.Context, timeout time.Duration, done func(), f func() T) (T, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ch := make(chan T, 1)
	go func() {
		v := f()
		if done != nil {
			done()
		}
		ch <- v
	}()
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// resolveEntity binds one wire entity against compiled rules and resolves it
// through the result cache. It returns a wire result ready for stamping with
// id/index, or an error classified by code. release (may be nil) is invoked
// exactly once when the entity's heavy work is over — immediately for bind
// errors and cache hits, or when the solver goroutine finishes otherwise
// (which on timeout is later than this function's return).
func (s *Server) resolveEntity(ctx context.Context, rules *conflictres.RuleSet, rk cacheKey, e *entityJSON, maxRounds int, mode conflictres.ResolutionMode, release func()) (*resultJSON, string, error) {
	if release == nil {
		release = func() {}
	}
	release = sync.OnceFunc(release)
	spec, err := bindEntity(rules, e)
	if err != nil {
		release()
		return nil, codeBadEntity, err
	}
	s.met.observeMode(mode.Strategy)
	key := specKey(rk, spec, e.Orders, mode)
	if v, ok := s.results.get(key); ok {
		release()
		return v.(*cachedResult).toResult(), "", nil
	}
	type outcome struct {
		res *conflictres.Result
		err error
	}
	o, err := runTimed(ctx, s.cfg.Timeout, release, func() outcome {
		// rules.Resolve serves the entity from a pooled pipeline (skeleton +
		// solver reused across requests under this rule set).
		res, err := rules.Resolve(spec, nil, conflictres.Options{MaxRounds: maxRounds, Mode: mode})
		return outcome{res, err}
	})
	if err != nil {
		return nil, codeTimeout, err
	}
	if o.err != nil {
		return nil, codeResolveFail, o.err
	}
	s.met.observe(o.res)
	out := encodeResult(rules.Schema(), o.res)
	s.results.put(key, toCached(out))
	return out, "", nil
}

// scanErrClass classifies a batch-stream scanner error: a line over the size
// cap is the client's fault (413); anything else is a bad request/stream.
func scanErrClass(err error) (code string, status int) {
	if errors.Is(err, bufio.ErrTooLong) {
		return codeTooLarge, http.StatusRequestEntityTooLarge
	}
	return codeBadRequest, http.StatusBadRequest
}

func errStatus(code string) int {
	switch code {
	case codeTimeout:
		return http.StatusGatewayTimeout
	case codeResolveFail:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// handleResolve is POST /v1/resolve: one entity, JSON in, JSON out.
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	s.met.resolveRequests.Add(1)
	var req resolveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	rules, rk, err := s.compileRules(&req.ruleSetJSON)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRules, err.Error())
		return
	}
	mode, ok := s.parseMode(w, req.Mode)
	if !ok {
		return
	}
	out, code, err := s.resolveEntity(r.Context(), rules, rk, &req.Entity, req.MaxRounds, mode, nil)
	if err != nil {
		s.writeError(w, errStatus(code), code, err.Error())
		return
	}
	out.ID = req.Entity.ID
	writeJSON(w, out)
}

// handleValidate is POST /v1/validate: validity check only; with
// "explain": true an invalid specification is diagnosed to a minimal
// conflicting constraint set.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	s.met.validateRequests.Add(1)
	var req struct {
		resolveRequest
		Explain bool `json:"explain,omitempty"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	rules, _, err := s.compileRules(&req.ruleSetJSON)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRules, err.Error())
		return
	}
	// Validity is strategy-independent, but an unknown mode is still the
	// client's error — reject it the same way the resolve endpoints do.
	if _, ok := s.parseMode(w, req.Mode); !ok {
		return
	}
	spec, err := bindEntity(rules, &req.Entity)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadEntity, err.Error())
		return
	}
	type verdict struct {
		Valid  bool
		Reason string
	}
	v, err := runTimed(r.Context(), s.cfg.Timeout, nil, func() verdict {
		var out verdict
		out.Valid = conflictres.Validate(spec)
		if !out.Valid && req.Explain {
			if reason, ok := conflictres.Explain(spec); ok {
				out.Reason = reason
			}
		}
		return out
	})
	if err != nil {
		s.writeError(w, http.StatusGatewayTimeout, codeTimeout, err.Error())
		return
	}
	writeJSON(w, struct {
		ID     string `json:"id,omitempty"`
		Valid  bool   `json:"valid"`
		Reason string `json:"reason,omitempty"`
	}{ID: req.Entity.ID, Valid: v.Valid, Reason: v.Reason})
}

// batchHeader is the first NDJSON line of a batch request.
type batchHeader struct {
	ruleSetJSON
	MaxRounds int `json:"maxRounds,omitempty"`
	// Mode selects the resolution strategy for every entity in the stream.
	Mode string `json:"mode,omitempty"`
}

// handleBatch is POST /v1/resolve/batch: NDJSON streaming. The first line
// compiles the shared rule set; every following line is one entity. Results
// stream back one JSON line each, in completion order, carrying the input's
// id and zero-based entity index. Memory use is bounded by the worker-pool
// width, not the stream length: result lines are written while the request
// stream is still arriving.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.batchRequests.Add(1)
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex() // ErrNotSupported only on writers that buffer anyway
	sc := bufio.NewScanner(r.Body)
	// Scanner's effective cap is max(cap(buf), max): keep the initial buffer
	// at or below the configured limit so small limits actually bind.
	bufSize := 64 << 10
	if int(s.cfg.MaxBodyBytes) < bufSize {
		bufSize = int(s.cfg.MaxBodyBytes)
	}
	sc.Buffer(make([]byte, bufSize), int(s.cfg.MaxBodyBytes))

	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			code, status := scanErrClass(err)
			s.writeError(w, status, code, "bad header line: "+err.Error())
			return
		}
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "empty batch: missing header line")
		return
	}
	var hdr batchHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "bad header line: "+err.Error())
		return
	}
	rules, rk, err := s.compileRules(&hdr.ruleSetJSON)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRules, err.Error())
		return
	}
	mode, ok := s.parseMode(w, hdr.Mode)
	if !ok {
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	var wmu sync.Mutex // serializes result lines
	enc := json.NewEncoder(w)
	emit := func(out *resultJSON) {
		wmu.Lock()
		defer wmu.Unlock()
		enc.Encode(out)
		rc.Flush()
	}

	sem := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	index := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		i := index
		index++
		var e entityJSON
		if err := json.Unmarshal(line, &e); err != nil {
			s.met.entitiesFailed.Add(1)
			emit(&resultJSON{Index: &i, Error: &errorJSON{Code: codeBadRequest, Message: "bad entity line: " + err.Error()}})
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(e entityJSON, i int) {
			defer wg.Done()
			// The slot is held until both the solver has finished and the
			// result line is written. The solver may outlive the response on
			// timeout, so Workers bounds true solver concurrency, not just
			// wrapper count; and a cache hit waiting on a slow reader keeps
			// its slot, so entities read but not yet written stay bounded
			// by Workers too.
			var pending atomic.Int32
			pending.Store(2)
			release := func() {
				if pending.Add(-1) == 0 {
					<-sem
				}
			}
			defer release()
			out, code, err := s.resolveEntity(r.Context(), rules, rk, &e, hdr.MaxRounds, mode, release)
			if err != nil {
				s.met.entitiesFailed.Add(1)
				out = &resultJSON{Error: &errorJSON{Code: code, Message: err.Error()}}
			}
			out.ID, out.Index = e.ID, &i
			emit(out)
		}(e, i)
	}
	scanErr := sc.Err()
	wg.Wait()
	if scanErr != nil {
		// The status line is long gone; report the failure in-band.
		code, _ := scanErrClass(scanErr)
		i := index
		emit(&resultJSON{Index: &i, Error: &errorJSON{Code: code, Message: "stream aborted: " + scanErr.Error()}})
	}
}

// handleHealthz is GET /healthz: liveness only — the process is up and
// serving. It stays green through shutdown draining; readiness is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// readyzJSON is the GET /readyz body: readiness as distinct from liveness.
type readyzJSON struct {
	Ready bool `json:"ready"`
	// RuleCacheEntries reports how many compiled rule sets are warm; a
	// coordinator can prefer warmed backends but must not require warmth —
	// a fresh backend is ready, just slower on its first request per rule
	// set.
	RuleCacheEntries int  `json:"ruleCacheEntries"`
	RuleCacheWarm    bool `json:"ruleCacheWarm"`
	// SessionJanitor reports the expiry janitor goroutine: "running" or
	// "stopped". A stopped janitor means Close ran (shutdown draining) —
	// session state would silently stop expiring, so the server reports
	// itself unready.
	SessionJanitor string `json:"sessionJanitor"`
	LiveSessions   int    `json:"liveSessions"`
	// LiveEntities counts the change-data-capture entities currently warm
	// behind the /v1/entity endpoints.
	LiveEntities int `json:"liveEntities"`
}

// handleReadyz is GET /readyz: 200 while the server should receive new
// work, 503 once Close has run (shutdown draining) or the session janitor
// has exited. External load balancers and the crshard health checker route
// on this; /healthz remains a pure liveness probe.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	_, _, ruleEntries := s.rules.stats()
	st := readyzJSON{
		Ready:            !s.closed.Load() && s.janitorUp.Load(),
		RuleCacheEntries: ruleEntries,
		RuleCacheWarm:    ruleEntries > 0,
		SessionJanitor:   "running",
		LiveSessions:     s.sessions.Live(),
		LiveEntities:     s.liveReg.Live(),
	}
	if !s.janitorUp.Load() {
		st.SessionJanitor = "stopped"
	}
	if !st.Ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable) //crlint:ignore wireerr readiness 503 carries the status JSON probes parse, not an error envelope
		json.NewEncoder(w).Encode(&st)
		return
	}
	writeJSON(w, &st)
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w, s.results, s.sessions, s.liveReg)
}
