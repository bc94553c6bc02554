// Package live keeps per-entity resolution state warm across deltas. A
// Registry maps keys to live sessions (facade LiveSession: a pooled
// pipeline held for the entry's lifetime). It serves two loops: the
// change-data-capture feed, where each upsert folds new rows into the
// loaded formula — incrementally when the delta is monotone, by automatic
// re-encode otherwise — and the interactive sessions of the HTTP server,
// one registry entry per session id, whose answer rounds are deltas too.
//
// Lifecycle: LRU eviction under a capacity cap, TTL expiry enforced lazily
// on access and by a periodic Sweep. Entries own a pooled pipeline, so
// eviction, expiry, removal and shutdown all route through closeAll, which
// serializes with in-flight operations on the entry mutex and returns the
// pipeline to its rule-set pool exactly once.
package live

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"conflictres"
)

var (
	// ErrBusy reports a concurrent operation in flight on the same entity;
	// upserts never queue silently (the server answers 409).
	ErrBusy = errors.New("live: entity busy")
	// ErrRulesChanged reports an upsert whose rule set differs from the one
	// the entity was created under; delete the entity to change rules.
	ErrRulesChanged = errors.New("live: rule set changed for existing entity")
	// ErrShutdown reports an operation against a closed registry.
	ErrShutdown = errors.New("live: registry closed")
	// ErrFaulted reports an upsert rejected by the registry's storage fault
	// hook before any state changed: the delta was NOT applied and must not
	// be acknowledged (the server answers 503 so clients retry).
	ErrFaulted = errors.New("live: storage fault")
)

// Delta is one accepted delta in an entity's row-log (see
// conflictres.LiveDelta). Replaying a log against a fresh entity reproduces
// its state exactly, which is what snapshot/restore and replica warm-up
// rely on.
type Delta = conflictres.LiveDelta

// Op is one upsert operation: the delta plus the binding metadata the
// registry records for replay. Mode, RulesWire and Label only take effect
// at creation (all are sticky per entity, like the rules).
type Op struct {
	Rows    []conflictres.Tuple
	Sources []string
	Orders  []conflictres.LiveOrder
	Mode    conflictres.ResolutionMode
	// RulesWire is the rule set's wire encoding, retained at creation so a
	// snapshot re-ships the exact blob the entity was created under rather
	// than re-deriving one from the compiled form.
	RulesWire []byte
	// Label is an opaque tag kept for the caller and its snapshots (server
	// sessions keep the client's entity id there).
	Label string
}

// EntityLog is the replayable record of one live entity, handed to a
// Snapshot callback under the entity's lock (no delta can land mid-read).
// The slices alias registry state: serialize before returning, don't retain.
type EntityLog struct {
	Key       string
	RulesWire []byte
	Mode      conflictres.ResolutionMode
	Label     string
	Deltas    []Delta
}

// Entry is a handle on one registered entity (see Registry.Entry). Its
// Lock, TryLock and Unlock are the entity's own mutex — the one every
// registry operation on it holds — so a caller holding it can run a
// multi-step sequence on the session that no upsert, other caller or close
// interleaves with. Use the session, and read Closed, only while holding
// it. Session itself may be read without it for entities Add published.
type Entry = entry

// entry is one live entity. Its mutex serializes every touch of ls —
// upserts, state reads, and the close path (eviction/expiry/shutdown) — so
// a pooled pipeline is never released while an extend is in flight. closed
// flips exactly once, under the mutex, when the pipeline goes back to the
// pool.
type entry struct {
	key       string
	rulesHash string
	rules     *conflictres.RuleSet

	sync.Mutex
	closed    bool
	ls        *conflictres.LiveSession   // carries the entity's row-log
	rulesWire []byte                     // creation-time rules blob, for snapshots
	mode      conflictres.ResolutionMode // creation-time mode, for snapshots
	label     string                     // creation-time Op.Label

	lastUse time.Time // TTL clock, guarded by the registry mutex
}

// Session returns the entity's live session.
func (e *entry) Session() *conflictres.LiveSession { return e.ls }

// Label returns the Op.Label the entity was created with.
func (e *entry) Label() string { return e.label }

// Closed reports whether the entity was evicted, expired, removed or shut
// down; its session then only answers State and Result.
func (e *entry) Closed() bool { return e.closed }

// Counters are a registry's monotonic lifecycle and delta counters,
// surfaced in /metrics.
type Counters struct {
	Created  int64
	Expired  int64
	Evicted  int64
	Extends  int64 // upsert deltas applied incrementally
	Rebuilds int64 // non-monotone upsert deltas (full re-encode)
}

// Result is the copied-out outcome of a registry operation: the entity's
// resolution state over every row seen so far.
type Result struct {
	Key string
	// Schema is the schema of the rule set the entity is bound to, for
	// encoding the state onto the wire.
	Schema *conflictres.Schema
	// State is an independent snapshot (see conflictres.LiveState).
	State conflictres.LiveState
	// Created reports that this operation opened the entity.
	Created bool
	// Extended reports whether the upsert delta was applied incrementally
	// (true for creates: the initial build is neither).
	Extended bool
}

// Registry is the keyed store of live entities. Safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	cap   int // <= 0: unbounded
	ttl   time.Duration
	ll    *list.List               // front = most recently used; holds *entry
	m     map[string]*list.Element // key -> element in ll
	down  bool
	fault func() error // storage fault hook; nil in production without chaos

	created  atomic.Int64
	expired  atomic.Int64
	evicted  atomic.Int64
	extends  atomic.Int64
	rebuilds atomic.Int64
}

// NewRegistry builds a registry with the given capacity cap (<= 0 means
// unbounded) and TTL (<= 0 means no expiry).
func NewRegistry(capacity int, ttl time.Duration) *Registry {
	return &Registry{cap: capacity, ttl: ttl, ll: list.New(), m: make(map[string]*list.Element)}
}

// SetFault installs a storage fault hook, consulted once per Upsert before
// any state changes: a non-nil error rejects the delta with ErrFaulted.
// Chaos suites wire an injector here; nil removes the hook. Call before
// serving traffic — the hook pointer is read without the registry lock.
func (r *Registry) SetFault(f func() error) { r.fault = f }

// Upsert folds op's rows (and optional currency edges) into the entity
// under key, creating it when absent. rulesHash identifies the rule set AND
// the resolution mode the rows are bound to; an existing entity refuses a
// different hash with ErrRulesChanged (mode is sticky per entity, like the
// rules — delete the entity to change either). op.Sources, when non-nil,
// must parallel op.Rows; op.Mode and op.RulesWire only take effect at
// creation. A concurrent operation on the same entity yields ErrBusy. Every
// accepted delta is in the entity's row-log (LiveSession.Log) before the
// call returns, so an acknowledged upsert is always replayable. The returned
// state covers every row the entity has seen.
func (r *Registry) Upsert(key string, rules *conflictres.RuleSet, rulesHash string, op Op) (Result, error) {
	for {
		e, victims, created, err := r.checkout(key, rulesHash, true)
		closeAll(victims)
		if err != nil {
			return Result{}, err
		}
		if e.closed {
			// Lost a race with eviction between lookup and lock; the entry
			// is already out of the map, so the next round starts fresh.
			e.Unlock()
			continue
		}
		if f := r.fault; f != nil {
			if ferr := f(); ferr != nil {
				e.Unlock()
				if created {
					r.drop(key, e)
				}
				return Result{}, errors.Join(ErrFaulted, ferr)
			}
		}
		res := Result{Key: key, Created: created}
		if created {
			ls, err := rules.NewLiveSessionMode(op.Rows, op.Sources, op.Orders, op.Mode)
			if err != nil {
				e.Unlock()
				r.drop(key, e)
				return Result{}, err
			}
			e.setSession(rules, ls, op)
		} else {
			extended, err := e.ls.UpsertSourced(op.Rows, op.Sources, op.Orders)
			if err != nil {
				e.Unlock()
				return Result{}, err
			}
			res.Extended = extended
			if extended {
				r.extends.Add(1)
			} else {
				r.rebuilds.Add(1)
			}
		}
		res.Schema = e.rules.Schema()
		res.State = e.ls.State()
		e.Unlock()
		return res, nil
	}
}

// setSession binds a freshly opened live session and its creation metadata
// to the entry.
func (e *entry) setSession(rules *conflictres.RuleSet, ls *conflictres.LiveSession, op Op) {
	e.ls = ls
	e.rules = rules
	e.mode = op.Mode
	e.rulesWire = append([]byte(nil), op.RulesWire...)
	e.label = op.Label
}

// Add registers a live session opened outside the registry under key,
// replacing (and closing) any entity already held there, and evicts over
// capacity; the registry owns ls from then on. It serves callers that must
// finish a session before its key is published — the server's interactive
// sessions, whose ids only the create response reveals — and snapshot
// restores, which keep keys stable. op supplies the creation metadata
// (Mode, RulesWire, Label); its rows are already in ls.
func (r *Registry) Add(key string, rules *conflictres.RuleSet, ls *conflictres.LiveSession, op Op) error {
	e := &entry{key: key, lastUse: time.Now()}
	e.setSession(rules, ls, op)
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		ls.Close()
		return ErrShutdown
	}
	var victims []*entry
	if el, ok := r.m[key]; ok {
		r.ll.Remove(el)
		victims = append(victims, el.Value.(*entry))
	}
	r.m[key] = r.ll.PushFront(e)
	r.created.Add(1)
	victims = append(victims, r.evictLocked()...)
	r.mu.Unlock()
	closeAll(victims)
	return nil
}

// Entry returns the entity under key without locking it, refreshing its TTL
// clock and LRU position; an expired entity is closed and reported absent.
// Until the caller holds the entry's lock, eviction or expiry may close it:
// check Closed under the lock before using the session.
func (r *Registry) Entry(key string) (*Entry, bool) {
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		return nil, false
	}
	e, victims := r.lookupLocked(key)
	r.mu.Unlock()
	closeAll(victims)
	return e, e != nil
}

// Snapshot walks every live entity, handing each one's replayable log to
// fn. Each callback runs under that entity's lock, so the log is a
// consistent point-in-time view; an fn error aborts the walk. Entities that
// race their own creation or a concurrent close are skipped, and the skip
// count is returned alongside the number snapshotted.
func (r *Registry) Snapshot(fn func(EntityLog) error) (written, skipped int, err error) {
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		return 0, 0, ErrShutdown
	}
	es := make([]*entry, 0, r.ll.Len())
	for el := r.ll.Back(); el != nil; el = el.Prev() {
		// Tail-first: oldest entries serialize first, so a capped restore
		// replays in roughly the original arrival order.
		es = append(es, el.Value.(*entry))
	}
	r.mu.Unlock()
	for _, e := range es {
		e.Lock()
		if e.closed || e.ls == nil {
			skipped++
			e.Unlock()
			continue
		}
		ferr := fn(EntityLog{Key: e.key, RulesWire: e.rulesWire, Mode: e.mode, Label: e.label, Deltas: e.ls.Log()})
		e.Unlock()
		if ferr != nil {
			return written, skipped, ferr
		}
		written++
	}
	return written, skipped, nil
}

// Get returns the entity's current state without applying any delta. The
// boolean reports presence; ErrBusy reports a concurrent operation.
func (r *Registry) Get(key string) (Result, bool, error) {
	for {
		e, victims, _, err := r.checkout(key, "", false)
		closeAll(victims)
		if err != nil {
			if errors.Is(err, errAbsent) {
				return Result{}, false, nil
			}
			return Result{}, false, err
		}
		if e.closed {
			e.Unlock()
			continue
		}
		res := Result{Key: key, Schema: e.rules.Schema(), State: e.ls.State()}
		e.Unlock()
		return res, true, nil
	}
}

// Spec returns an independent copy of the entity's accumulated
// specification — the input a from-scratch resolution would see. The
// differential layer resolves it and byte-compares against Get.
func (r *Registry) Spec(key string) (*conflictres.Spec, bool, error) {
	for {
		e, victims, _, err := r.checkout(key, "", false)
		closeAll(victims)
		if err != nil {
			if errors.Is(err, errAbsent) {
				return nil, false, nil
			}
			return nil, false, err
		}
		if e.closed {
			e.Unlock()
			continue
		}
		spec := e.ls.Spec()
		e.Unlock()
		return spec, true, nil
	}
}

// Remove deletes the entity, blocking until any in-flight operation on it
// drains, and returns its pipeline to the pool. It reports whether the
// entity was present and not already expired.
func (r *Registry) Remove(key string) bool {
	r.mu.Lock()
	el, ok := r.m[key]
	if !ok {
		r.mu.Unlock()
		return false
	}
	e := el.Value.(*entry)
	expired := r.ttl > 0 && time.Since(e.lastUse) > r.ttl
	r.ll.Remove(el)
	delete(r.m, key)
	if expired {
		r.expired.Add(1)
	}
	r.mu.Unlock()
	closeAll([]*entry{e})
	return !expired
}

// errAbsent is internal: checkout(create=false) found no entry.
var errAbsent = errors.New("live: no such entity")

// checkout resolves key to a locked entry. Under the registry lock it
// handles TTL expiry, LRU refresh, capacity eviction and (when create is
// set) placeholder insertion; the locked entry plus any eviction victims
// are returned for the caller to use and close outside the lock. A created
// placeholder is returned already locked, so concurrent requests see
// ErrBusy while the caller builds the live session.
func (r *Registry) checkout(key, rulesHash string, create bool) (e *entry, victims []*entry, created bool, err error) {
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		return nil, nil, false, ErrShutdown
	}
	if e, victims = r.lookupLocked(key); e != nil {
		if create && e.rulesHash != rulesHash {
			r.mu.Unlock()
			return nil, victims, false, ErrRulesChanged
		}
		if !e.TryLock() {
			r.mu.Unlock()
			return nil, victims, false, ErrBusy
		}
		r.mu.Unlock()
		return e, victims, false, nil
	}
	if !create {
		r.mu.Unlock()
		return nil, victims, false, errAbsent
	}
	e = &entry{key: key, rulesHash: rulesHash, lastUse: time.Now()}
	e.Lock()
	r.m[key] = r.ll.PushFront(e)
	r.created.Add(1)
	victims = append(victims, r.evictLocked()...)
	r.mu.Unlock()
	return e, victims, true, nil
}

// lookupLocked finds key's entry, refreshing its TTL clock and LRU
// position. An expired entry is unlinked, counted and returned as a victim
// for the caller to close once the registry lock is released.
func (r *Registry) lookupLocked(key string) (*entry, []*entry) {
	el, ok := r.m[key]
	if !ok {
		return nil, nil
	}
	e := el.Value.(*entry)
	if r.ttl > 0 && time.Since(e.lastUse) > r.ttl {
		r.ll.Remove(el)
		delete(r.m, key)
		r.expired.Add(1)
		return nil, []*entry{e}
	}
	e.lastUse = time.Now()
	r.ll.MoveToFront(el)
	return e, nil
}

// evictLocked unlinks least recently used entries until the registry is
// back under its cap, returning them for the caller to close once the
// registry lock is released.
func (r *Registry) evictLocked() []*entry {
	var victims []*entry
	for r.cap > 0 && r.ll.Len() > r.cap {
		el := r.ll.Back()
		old := el.Value.(*entry)
		r.ll.Remove(el)
		delete(r.m, old.key)
		r.evicted.Add(1)
		victims = append(victims, old)
	}
	return victims
}

// drop removes a placeholder whose live session failed to build.
func (r *Registry) drop(key string, e *entry) {
	r.mu.Lock()
	if el, ok := r.m[key]; ok && el.Value.(*entry) == e {
		r.ll.Remove(el)
		delete(r.m, key)
	}
	r.created.Add(-1)
	r.mu.Unlock()
}

// closeAll closes entries collected under the registry lock. Each close
// takes the entry mutex, so it blocks until any in-flight upsert drains,
// then returns the pipeline to its pool exactly once.
func closeAll(es []*entry) {
	for _, e := range es {
		e.Lock()
		if !e.closed {
			e.closed = true
			if e.ls != nil {
				e.ls.Close()
			}
		}
		e.Unlock()
	}
}

// Sweep closes every entry past its TTL (called by the server's janitor).
// It walks from the LRU tail, so it stops at the first still-live entry.
func (r *Registry) Sweep() {
	if r.ttl <= 0 {
		return
	}
	var victims []*entry
	r.mu.Lock()
	now := time.Now()
	for el := r.ll.Back(); el != nil; {
		e := el.Value.(*entry)
		if now.Sub(e.lastUse) <= r.ttl {
			break // everything further front is more recently used
		}
		prev := el.Prev()
		r.ll.Remove(el)
		delete(r.m, e.key)
		r.expired.Add(1)
		victims = append(victims, e)
		el = prev
	}
	r.mu.Unlock()
	closeAll(victims)
}

// Live returns the number of entities currently held.
func (r *Registry) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ll.Len()
}

// CountersSnapshot reports the registry's cumulative counters.
func (r *Registry) CountersSnapshot() Counters {
	return Counters{
		Created:  r.created.Load(),
		Expired:  r.expired.Load(),
		Evicted:  r.evicted.Load(),
		Extends:  r.extends.Load(),
		Rebuilds: r.rebuilds.Load(),
	}
}

// Close shuts the registry down: every entity is closed (blocking on
// in-flight operations) and later calls fail with ErrShutdown. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		return
	}
	r.down = true
	victims := make([]*entry, 0, r.ll.Len())
	for el := r.ll.Front(); el != nil; el = el.Next() {
		victims = append(victims, el.Value.(*entry))
	}
	r.ll.Init()
	r.m = make(map[string]*list.Element)
	r.mu.Unlock()
	closeAll(victims)
}
