package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"

	"conflictres"
	"conflictres/internal/relation"
)

// cacheKey identifies one resolution problem: a canonical hash of (schema,
// Σ, Γ, trust, instance, sources, mode, orders). Identical replicated
// entities — the common case when the same record arrives from many
// sources — hit the same key and skip all SAT work.
type cacheKey [sha256.Size]byte

// hashField writes one length-prefixed field so concatenations cannot
// collide across field boundaries.
func hashField(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// keyBufs recycles specKey's preimage buffers, so hashing an entity does not
// allocate per field.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1<<10); return &b }}

// maxKeyBuf caps the buffers returned to keyBufs: one outsized entity must
// not pin its preimage buffer for the life of the process.
const maxKeyBuf = 64 << 10

// appendField appends one length-prefixed field (the preimage form of
// hashField).
func appendField(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// appendValue appends the canonical Quote form of v as one length-prefixed
// field, writing the prefix once the quoted length is known.
func appendValue(b []byte, v relation.Value) []byte {
	at := len(b)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = v.AppendQuote(b)
	binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	return b
}

// specKey hashes one bound entity under a compiled rule set into a cache
// key. rk is the rule set's rulesKey, computed once per request when the
// rules compile, so an entity's key costs the entity's size, not the rule
// set's. The entity's raw JSON cells are decoded before binding, so hashing
// uses the canonical Quote form of each decoded value (not the raw bytes,
// which could differ in float spelling for equal values). Entities share a
// key exactly when they share rules, cells, sources, mode and orders.
func specKey(rk cacheKey, spec *conflictres.Spec, orders []orderJSON, mode conflictres.ResolutionMode) cacheKey {
	bp := keyBufs.Get().(*[]byte)
	b := append((*bp)[:0], rk[:]...)
	b = appendField(b, "#data")
	in := spec.Instance()
	for id := range in.Len() {
		for _, v := range in.Tuple(relation.TupleID(id)) {
			b = appendValue(b, v)
		}
		b = appendField(b, "#row")
	}
	// Source tags and the strategy both steer the picked values, so they are
	// part of the problem identity (untagged instances hash empty sources and
	// the default mode name — stable across requests).
	b = appendField(b, "#sources")
	for id := range in.Len() {
		b = appendField(b, in.Source(relation.TupleID(id)))
	}
	b = appendField(b, "#mode")
	b = appendField(b, mode.Strategy.String())
	b = appendField(b, "#orders")
	for _, o := range orders {
		b = appendField(b, o.Attr)
		b = binary.LittleEndian.AppendUint64(b, uint64(o.T1))
		b = binary.LittleEndian.AppendUint64(b, uint64(o.T2))
	}
	k := cacheKey(sha256.Sum256(b))
	if cap(b) <= maxKeyBuf {
		*bp = b
		keyBufs.Put(bp)
	}
	return k
}

// liveEntityKey keys a live entity's cached state snapshot in the result
// LRU: the entity key under a reserved prefix (client keys cannot collide
// with specKey/rulesKey hashes — the prefix is length-tagged like every
// field). Upserts and deletes remove the key; gets repopulate it.
func liveEntityKey(key string) cacheKey {
	h := sha256.New()
	hashField(h, "#live-entity")
	hashField(h, key)
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// rulesKey hashes a wire rule set (schema names plus constraint and trust
// texts); it keys the compiled-rule-set cache so repeated requests with
// identical Σ/Γ skip parsing, and it heads every specKey preimage so the
// rule texts are hashed once per request, not once per entity.
func rulesKey(rs *ruleSetJSON) cacheKey {
	h := sha256.New()
	for _, n := range rs.Schema {
		hashField(h, n)
	}
	hashField(h, "#sigma")
	for _, s := range rs.Currency {
		hashField(h, s)
	}
	hashField(h, "#gamma")
	for _, s := range rs.CFDs {
		hashField(h, s)
	}
	hashField(h, "#trust")
	for _, s := range rs.Trust {
		hashField(h, s)
	}
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// cachedResult is the immutable payload stored per key. It intentionally
// excludes Timing (a cached answer took no solver time) and the request's
// id/index, which are stamped per response.
type cachedResult struct {
	Valid    bool
	Resolved map[string]any
	Tuple    []any
	Rounds   int
}

func toCached(r *resultJSON) *cachedResult {
	return &cachedResult{Valid: r.Valid, Resolved: r.Resolved, Tuple: r.Tuple, Rounds: r.Rounds}
}

func (c *cachedResult) toResult() *resultJSON {
	return &resultJSON{Valid: c.Valid, Resolved: c.Resolved, Tuple: c.Tuple, Rounds: c.Rounds, Cached: true}
}

// lru is a fixed-capacity, mutex-guarded LRU map from cache keys to opaque
// immutable values (resolution results, compiled rule sets). A zero or
// negative capacity disables caching entirely.
type lru struct {
	mu  sync.Mutex
	max int
	ll  *list.List
	m   map[cacheKey]*list.Element

	hits, misses int64
}

type lruEntry struct {
	key cacheKey
	val any
}

func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

func (c *lru) enabled() bool { return c.max > 0 }

// get returns the cached value for k, promoting it to most-recently-used.
func (c *lru) get(k cacheKey) (any, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put stores v under k, evicting the least-recently-used entry when full.
func (c *lru) put(k cacheKey, v any) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*lruEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&lruEntry{key: k, val: v})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*lruEntry).key)
	}
}

// remove drops k from the cache, reporting whether it was present. Live
// entities use it to invalidate their cached state on every upsert.
func (c *lru) remove(k cacheKey) bool {
	if !c.enabled() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.m, k)
	return true
}

// stats returns (hits, misses, current size).
func (c *lru) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
