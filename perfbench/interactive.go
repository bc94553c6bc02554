package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"conflictres"
	"conflictres/internal/datagen"
	"conflictres/internal/live"
	"conflictres/internal/relation"
)

// Interactive workload shape: an open loop of ops at a fixed arrival rate,
// well below what the fleet saturates at on the reference box. opPattern
// fixes the mix exactly, so no seed draws a heavier one: of every 20 ops,
// 11 are row upserts to live entities (U), 5 reads of them (G) and 4 steps
// of interactive session dialogs (S).
const (
	interactiveRate = 20 // ops per second
	opPattern       = "UGUSUUGUUSUGUUSUGUSG"
	// activeFeeds live entities receive rows at any time; a feed ends after
	// its entity's first feedRows rows and is replaced by a fresh entity, so
	// a run's upserts spread over many entities rather than a few.
	activeFeeds = 12
	feedRows    = 10
	// dialogSlots session dialogs run at any time.
	dialogSlots = 2
	// maxDialogRounds ends a dialog that has not completed after this many
	// answers.
	maxDialogRounds = 16
	// latencyLimit is the per-op latency target for within_limit_share.
	latencyLimit = 100 * time.Millisecond
	liveProbes   = 8
)

const (
	opUpsert = iota
	opGet
	opSession
)

// feed is one live entity fed row by row.
type feed struct {
	key  string
	rows []relation.Tuple
	// acked counts upserts acknowledged so far; scheduled is only touched
	// while building the schedule.
	acked     int
	scheduled int
}

// dialog is one session slot; ops of a slot run strictly in order.
type dialog struct {
	pool []*datagen.Entity
	next int
	cur  *openSession
}

type openSession struct {
	id      string
	e       *datagen.Entity
	state   sessionState
	answers int
}

type sessionState struct {
	outcomeJSON
	Complete     bool   `json:"complete"`
	Interactions int    `json:"interactions"`
	Session      string `json:"session"`
	Suggestion   *struct {
		Attrs []string `json:"attrs"`
	} `json:"suggestion"`
}

// entityState is a live entity's state as upserts and reads return it.
type entityState struct {
	outcomeJSON
	Rows       int `json:"rows"`
	ReplicaLag int `json:"replica_lag"`
}

// op is one scheduled request. Ops on one key run in schedule order: each
// waits for prev, the previous op on its key, before it is sent.
type op struct {
	due  time.Duration
	kind int
	feed *feed
	row  int // upsert: index of the row sent
	dlg  *dialog
	prev chan struct{}
	done chan struct{}
}

type interactiveRun struct {
	seed   int64
	secs   int
	rules  rulesJSON
	rs     *conflictres.RuleSet
	feeds  []*datagen.Entity
	dialog []*datagen.Entity
	warmE  *datagen.Entity
	probes []*datagen.Entity
}

func prepareInteractive(seed int64, seconds int) (runner, error) {
	n := interactiveRate * seconds
	ds, e, err := nbaPlayers(seed, 2*n+1+liveProbes)
	if err != nil {
		return nil, err
	}
	rules, rs, err := ruleTexts(ds)
	if err != nil {
		return nil, err
	}
	return &interactiveRun{seed: seed, secs: seconds, rules: rules, rs: rs,
		feeds: e[:n], dialog: e[n : 2*n], warmE: e[2*n], probes: e[2*n+1:]}, nil
}

func (r *interactiveRun) upsertBody(rows []relation.Tuple) any {
	return map[string]any{"schema": r.rules.Schema, "currency": r.rules.Currency, "cfds": r.rules.CFDs,
		"rows": wireRows(rows)}
}

func entityURL(base, key string) string { return base + "/v1/entity/" + url.PathEscape(key) }

func (r *interactiveRun) warm(ctx context.Context, b *bench) error {
	key := "warm-" + r.warmE.ID
	st, data, err := do(ctx, b.client, http.MethodPost, entityURL(b.fleet.entry(), key)+"/rows", r.upsertBody(rowsOf(r.warmE)[:1]))
	if err := expect(st, data, err, http.StatusOK); err != nil {
		return err
	}
	st, data, err = do(ctx, b.client, http.MethodDelete, entityURL(b.fleet.entry(), key), nil)
	return expect(st, data, err, http.StatusOK)
}

// schedule lays out the ops: kinds follow opPattern, feeds and rows are
// drawn from the seed; what a session op does is decided when it runs.
func (r *interactiveRun) schedule() ([]*op, []*feed) {
	rng := rand.New(rand.NewSource(r.seed * 131))
	pool := r.feeds
	var all []*feed
	newFeed := func() *feed {
		e := pool[len(all)]
		f := &feed{key: "live-" + e.ID, rows: rowsOf(e)[:feedRows]}
		all = append(all, f)
		return f
	}
	active := make([]*feed, activeFeeds)
	for i := range active {
		active[i] = newFeed()
	}
	dialogs := make([]*dialog, dialogSlots)
	for i := range dialogs {
		dialogs[i] = &dialog{}
		for j := i; j < len(r.dialog); j += dialogSlots {
			dialogs[i].pool = append(dialogs[i].pool, r.dialog[j])
		}
	}
	last := make(map[any]chan struct{})
	var started []*feed
	n := interactiveRate * r.secs
	ops := make([]*op, 0, n)
	for i := 0; i < n; i++ {
		o := &op{due: time.Duration(i) * time.Second / interactiveRate, done: make(chan struct{})}
		switch c := opPattern[i%len(opPattern)]; {
		case c == 'U' || (c == 'G' && len(started) == 0):
			s := rng.Intn(activeFeeds)
			f := active[s]
			o.kind, o.feed, o.row = opUpsert, f, f.scheduled
			if f.scheduled == 0 {
				started = append(started, f)
			}
			f.scheduled++
			if f.scheduled == len(f.rows) {
				active[s] = newFeed()
			}
		case c == 'G':
			f := started[rng.Intn(len(started))]
			o.kind, o.feed = opGet, f
		default:
			o.kind, o.dlg = opSession, dialogs[rng.Intn(dialogSlots)]
		}
		var key any = o.feed
		if o.kind == opSession {
			key = o.dlg
		}
		o.prev = last[key]
		last[key] = o.done
		ops = append(ops, o)
	}
	return ops, started
}

// liveObs is one entity state the fleet returned, to be compared with a
// from-scratch resolve of the rows it covers.
type liveObs struct {
	f   *feed
	got entityState
}

// finishedDialog is a dialog's last state, to be compared with the
// in-process loop under the same truth oracle.
type finishedDialog struct {
	e     *datagen.Entity
	state sessionState
}

func (r *interactiveRun) window(ctx context.Context, b *bench, pass int, tr *tracer) (*window, error) {
	ops, started := r.schedule()
	w := newWindow(pass)
	w.limit, w.openLoop = latencyLimit, true
	var mu sync.Mutex
	var obs []liveObs
	var dialogsDone []finishedDialog
	record := func(f *feed, s entityState) {
		mu.Lock()
		obs = append(obs, liveObs{f, s})
		mu.Unlock()
	}
	finish := func(e *datagen.Entity, s sessionState) {
		mu.Lock()
		dialogsDone = append(dialogsDone, finishedDialog{e, s})
		mu.Unlock()
	}

	ch := make(chan *op)
	start := time.Now()
	var lastDone time.Time
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range ch {
				if d := time.Until(start.Add(o.due)); d > 0 {
					time.Sleep(d)
				}
				if o.prev != nil {
					<-o.prev
				}
				sent := time.Now()
				id, spanStart := tr.begin()
				kind, ok, result := r.exec(ctx, b, w, o, record, finish)
				tr.end(id, spanStart, 0, int64(o.due), "loadgen."+kind)
				end := time.Now()
				close(o.done)
				lat := end.Sub(start.Add(o.due))
				w.mu.Lock()
				w.attempted++
				w.late = append(w.late, sent.Sub(start.Add(o.due)))
				w.kinds[kind] = append(w.kinds[kind], lat)
				if ok {
					w.reqs = append(w.reqs, request{from: start.Add(o.due), end: end})
				}
				if ok && result {
					w.results++
					w.completions = append(w.completions, end)
				}
				w.timed++
				if end.After(lastDone) {
					lastDone = end
				}
				w.mu.Unlock()
			}
		}()
	}
	for _, o := range ops {
		ch <- o
	}
	close(ch)
	wg.Wait()
	w.elapsed = lastDone.Sub(start)
	w.sliceByTime(start, w.elapsed)

	// Outside the window: read every fed entity's final state and close
	// dialogs still open.
	for _, f := range started {
		w.attempted++
		st, data, err := do(ctx, b.meta, http.MethodGet, entityURL(b.fleet.entry(), f.key), nil)
		var s entityState
		if err = expect(st, data, err, http.StatusOK); err == nil {
			err = json.Unmarshal(data, &s)
		}
		if err != nil {
			w.fail("final state of %s: %v", f.key, err)
			continue
		}
		if s.Rows != f.acked && s.ReplicaLag == 0 {
			w.fail("final state of %s covers %d rows, %d acknowledged", f.key, s.Rows, f.acked)
			continue
		}
		record(f, s)
	}
	for _, o := range ops {
		if o.kind == opSession && o.dlg.cur != nil {
			// Best effort: the fleet is stopped after the window anyway.
			do(ctx, b.meta, http.MethodDelete, b.fleet.entry()+"/v1/session/"+o.dlg.cur.id, nil)
			o.dlg.cur = nil
		}
	}
	w.addCheck(fmt.Sprintf("live entities pass %d against from-scratch resolves", pass), func() (int, error) {
		return r.checkLive(obs)
	})
	w.addCheck(fmt.Sprintf("session dialogs pass %d against the in-process loop", pass), func() (int, error) {
		return r.checkDialogs(dialogsDone)
	})
	return w, nil
}

// exec sends one op and reports its kind, whether it succeeded, and
// whether it returned an entity resolution.
func (r *interactiveRun) exec(ctx context.Context, b *bench, w *window, o *op,
	record func(*feed, entityState), finish func(*datagen.Entity, sessionState)) (string, bool, bool) {
	base := b.fleet.entry()
	switch o.kind {
	case opUpsert:
		f := o.feed
		st, data, err := do(ctx, b.client, http.MethodPost, entityURL(base, f.key)+"/rows", r.upsertBody(f.rows[o.row:o.row+1]))
		var s entityState
		if err = expect(st, data, err, http.StatusOK); err == nil {
			err = json.Unmarshal(data, &s)
		}
		if err == nil && s.Rows != o.row+1 {
			err = fmt.Errorf("state covers %d rows after upsert of row %d", s.Rows, o.row)
		}
		if err != nil {
			w.fail("upsert %s row %d: %v", f.key, o.row, err)
			return "upsert", false, false
		}
		f.acked = o.row + 1
		record(f, s)
		return "upsert", true, true
	case opGet:
		f := o.feed
		st, data, err := do(ctx, b.client, http.MethodGet, entityURL(base, f.key), nil)
		var s entityState
		if err = expect(st, data, err, http.StatusOK); err == nil {
			err = json.Unmarshal(data, &s)
		}
		if err == nil && s.Rows != f.acked && s.ReplicaLag == 0 {
			err = fmt.Errorf("read covers %d rows, %d acknowledged", s.Rows, f.acked)
		}
		if err != nil {
			w.fail("get %s: %v", f.key, err)
			return "get", false, false
		}
		record(f, s)
		return "get", true, true
	}
	d := o.dlg
	switch {
	case d.cur == nil:
		if d.next >= len(d.pool) {
			w.fail("dialog pool exhausted")
			return "session_round", false, false
		}
		e := d.pool[d.next]
		d.next++
		body := map[string]any{"schema": r.rules.Schema, "currency": r.rules.Currency, "cfds": r.rules.CFDs,
			"entity": batchLine{ID: e.ID, Tuples: wireRows(rowsOf(e))}}
		st, data, err := do(ctx, b.client, http.MethodPost, base+"/v1/session", body)
		var s sessionState
		if err = expect(st, data, err, http.StatusOK); err == nil {
			err = json.Unmarshal(data, &s)
		}
		if err != nil {
			w.fail("session create %s: %v", e.ID, err)
			return "session_round", false, false
		}
		d.cur = &openSession{id: s.Session, e: e, state: s}
		return "session_round", true, true
	case d.cur.state.Complete || d.cur.state.Suggestion == nil || len(d.cur.state.Suggestion.Attrs) == 0 ||
		d.cur.answers >= maxDialogRounds:
		cur := d.cur
		d.cur = nil
		st, data, err := do(ctx, b.client, http.MethodDelete, base+"/v1/session/"+cur.id, nil)
		if err := expect(st, data, err, http.StatusNoContent); err != nil {
			w.fail("session delete: %v", err)
			return "session_delete", false, false
		}
		finish(cur.e, cur.state)
		return "session_delete", true, false
	default:
		cur := d.cur
		answers := make(map[string]any)
		for _, name := range cur.state.Suggestion.Attrs {
			a, _ := r.rs.Schema().Attr(name)
			answers[name] = cur.e.Truth[a].AsJSON()
		}
		st, data, err := do(ctx, b.client, http.MethodPost, base+"/v1/session/"+cur.id+"/answer", map[string]any{"answers": answers})
		var s sessionState
		if err = expect(st, data, err, http.StatusOK); err == nil {
			err = json.Unmarshal(data, &s)
		}
		if err != nil {
			w.fail("session answer %s: %v", cur.e.ID, err)
			d.cur = nil
			// Best effort: the failure is already counted.
			do(ctx, b.client, http.MethodDelete, base+"/v1/session/"+cur.id, nil)
			return "session_round", false, false
		}
		cur.state = s
		cur.answers++
		return "session_round", true, true
	}
}

// checkLive compares each observed entity state with the outcome of
// resolving the rows it covers from scratch.
func (r *interactiveRun) checkLive(obs []liveObs) (int, error) {
	type key struct {
		f    *feed
		rows int
	}
	idx := make(map[key]int)
	var ins []*relation.Instance
	for _, o := range obs {
		k := key{o.f, o.got.Rows}
		if _, ok := idx[k]; ok {
			continue
		}
		in, err := instanceOf(r.rs.Schema(), o.f.rows[:o.got.Rows])
		if err != nil {
			return 0, err
		}
		idx[k] = len(ins)
		ins = append(ins, in)
	}
	ref, err := resolveReference(r.rs, ins)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, o := range obs {
		if !sameOutcome(o.got.outcomeJSON, ref[idx[key{o.f, o.got.Rows}]]) {
			bad++
		}
	}
	return bad, nil
}

// checkDialogs replays each finished dialog in-process: the same entity,
// answered from the same truth tuple, must end in the same state.
func (r *interactiveRun) checkDialogs(done []finishedDialog) (int, error) {
	sch := r.rs.Schema()
	bad := 0
	for _, fd := range done {
		spec, err := conflictres.NewSpecFromRules(fd.e.Spec.TI.Inst, r.rs)
		if err != nil {
			return 0, err
		}
		sess, err := conflictres.NewSession(spec)
		if err != nil {
			return 0, err
		}
		for i := 0; i < maxDialogRounds && !sess.Complete(); i++ {
			sug, err := sess.Suggest()
			if err != nil || len(sug.Attrs) == 0 {
				break
			}
			answers := make(map[string]conflictres.Value, len(sug.Attrs))
			for _, a := range sug.Attrs {
				answers[sch.Name(a)] = fd.e.Truth[a]
			}
			if err := sess.Apply(answers); err != nil {
				break
			}
		}
		res := sess.Result()
		want := referenceOutcome(sch, res.Valid, res.Resolved, res.Tuple)
		if !sameOutcome(fd.state.outcomeJSON, want) || fd.state.Complete != res.Complete() ||
			fd.state.Interactions != res.Interactions {
			bad++
		}
	}
	return bad, nil
}

// probe measures the server's overhead on creating live entities against
// the same upsert into an in-process registry, and the coordinator's hop on
// reads sent through crshard and straight to the entity's owner.
func (r *interactiveRun) probe(ctx context.Context, b *bench, lay *layerReport) error {
	var client []time.Duration
	for _, e := range r.probes {
		st, data, d, err := timedDo(ctx, b.client, http.MethodPost, entityURL(b.fleet.entry(), "probe-"+e.ID)+"/rows", r.upsertBody(rowsOf(e)[:1]))
		if err := expect(st, data, err, http.StatusOK); err != nil {
			return fmt.Errorf("probe upsert: %w", err)
		}
		client = append(client, d)
	}
	// A fresh registry per call, so every timed upsert creates its entity
	// as the probe requests did.
	local, err := timeEach(r.probes, func(e *datagen.Entity) error {
		reg := live.NewRegistry(0, 0)
		defer reg.Close()
		_, err := reg.Upsert("probe-"+e.ID, r.rs, "perfbench", live.Op{Rows: rowsOf(e)[:1]})
		return err
	})
	if err != nil {
		return err
	}
	lay.overhead(client, local)

	key := "probe-" + r.probes[0].ID
	owner, err := ownerURL(b.fleet, key)
	if err != nil {
		return err
	}
	hop, err := measureHop(ctx, b.client, http.MethodGet, entityURL(b.fleet.entry(), key), entityURL(owner, key), nil)
	if err != nil {
		return err
	}
	lay.values["shard.hop_ms"] = hop
	lay.samples["shard.hop_ms"] = hopProbes
	return nil
}

func (r *interactiveRun) replay(tr *tracer, lay *layerReport) error {
	return replayLayers(tr, lay, r.rs, r.feeds, r.rules.Schema)
}
