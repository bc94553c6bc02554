package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"conflictres"
	"conflictres/internal/datagen"
	"conflictres/internal/relation"
	"conflictres/internal/shard"
)

// Batch workload shape: each request carries batchSize entities, and every
// repeatEvery-th entity repeats one the same client sent in an earlier,
// completed request, so one entity in four can be answered from the
// result cache.
const (
	batchSize   = 8
	repeatEvery = 4
	// nbaPerSecond bounds the distinct entities drawn per second of
	// --seconds: well above what the fleet resolves on the reference box.
	nbaPerSecond = 80
	batchProbes  = 8
	// batchLimit is the latency limit per batch request, a few times
	// what one takes on the reference box.
	batchLimit = 2 * time.Second
	hopProbes  = 20
)

// batchRun drives a closed loop of `clients` clients, each posting
// fixed-size NDJSON batches of NBA players through crshard.
type batchRun struct {
	seed   int64
	secs   int
	rules  rulesJSON
	rs     *conflictres.RuleSet
	ents   []*datagen.Entity
	warmE  []*datagen.Entity
	probes []*datagen.Entity
}

func prepareBatch(seed int64, seconds int) (runner, error) {
	n := nbaPerSecond * seconds
	ds, e, err := nbaPlayers(seed, n+4+2*batchProbes)
	if err != nil {
		return nil, err
	}
	rules, rs, err := ruleTexts(ds)
	if err != nil {
		return nil, err
	}
	return &batchRun{seed: seed, secs: seconds, rules: rules, rs: rs,
		ents: e[:n], warmE: e[n : n+4], probes: e[n+4:]}, nil
}

type batchLine struct {
	ID     string  `json:"id"`
	Tuples [][]any `json:"tuples"`
}

// batchStats is what one batch request observed.
type batchStats struct {
	start, first, end time.Time
	lines             []resultLine
	arrived           []time.Time
}

// post sends ents as one batch request and collects its result lines.
func (r *batchRun) post(ctx context.Context, c *http.Client, url string, ents []*datagen.Entity) (*batchStats, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(r.rules); err != nil {
		return nil, err
	}
	for _, e := range ents {
		if err := enc.Encode(batchLine{ID: e.ID, Tuples: wireRows(rowsOf(e))}); err != nil {
			return nil, err
		}
	}
	st := &batchStats{start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/resolve/batch", &buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("batch: status %d: %.200s", resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		now := time.Now()
		if st.first.IsZero() {
			st.first = now
		}
		var l resultLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("batch result line: %w", err)
		}
		st.lines = append(st.lines, l)
		st.arrived = append(st.arrived, now)
	}
	st.end = time.Now()
	return st, sc.Err()
}

func (r *batchRun) warm(ctx context.Context, b *bench) error {
	st, err := r.post(ctx, b.client, b.fleet.entry(), r.warmE)
	if err != nil {
		return err
	}
	for _, l := range st.lines {
		if l.Error != nil {
			return fmt.Errorf("warm-up entity %s: %s", l.ID, l.Error.Message)
		}
	}
	return nil
}

// sentEntity is one entity line of a request, paired with its answer.
type sentEntity struct {
	e    *datagen.Entity
	line *resultLine
}

func (r *batchRun) window(ctx context.Context, b *bench, pass int, tr *tracer) (*window, error) {
	w := newWindow(pass)
	w.limit = batchLimit
	pool := r.ents
	start := time.Now()
	deadline := start.Add(time.Duration(r.secs) * time.Second)
	var mu sync.Mutex
	var sent []sentEntity
	var lastEnd time.Time
	var reqID int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed*31 + int64(c)))
			var done []*datagen.Entity // entities this client saw answered
			next := c                  // clients take alternate entities of the pool
			for time.Now().Before(deadline) {
				var ents, fresh []*datagen.Entity
				for j := 0; j < batchSize; j++ {
					if j%repeatEvery == repeatEvery-1 && len(done) > 0 {
						ents = append(ents, done[rng.Intn(len(done))])
						continue
					}
					if next >= len(pool) {
						break
					}
					ents = append(ents, pool[next])
					fresh = append(fresh, pool[next])
					next += clients
				}
				if len(fresh) == 0 {
					errs[c] = fmt.Errorf("client %d exhausted its %d entities", c, len(pool)/clients)
					return
				}
				mu.Lock()
				reqID++
				id := reqID
				mu.Unlock()
				var st *batchStats
				var err error
				tr.do("loadgen.batch", 0, id, func(int64) {
					st, err = r.post(ctx, b.client, b.fleet.entry(), ents)
				})
				w.mu.Lock()
				w.attempted += len(ents)
				w.timed++
				w.mu.Unlock()
				if err != nil {
					for range ents {
						w.fail("batch request: %v", err)
					}
					continue
				}
				r.account(w, st, ents, &mu, &sent)
				mu.Lock()
				if st.end.After(lastEnd) {
					lastEnd = st.end
				}
				mu.Unlock()
				done = append(done, fresh...)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	w.elapsed = lastEnd.Sub(start)
	w.sliceByTime(start, w.elapsed)
	w.addCheck(fmt.Sprintf("batch pass %d against in-process ResolveBatch", pass), func() (int, error) {
		return r.check(sent)
	})
	return w, nil
}

// account matches a request's result lines to its entities and records
// latencies; entities left without a good line are failures.
func (r *batchRun) account(w *window, st *batchStats, ents []*datagen.Entity, mu *sync.Mutex, sent *[]sentEntity) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.kinds["batch"] = append(w.kinds["batch"], st.end.Sub(st.start))
	if !st.first.IsZero() {
		w.firstResult = append(w.firstResult, st.first.Sub(st.start))
	}
	answered := make([]bool, len(ents))
	for i := range st.lines {
		l := &st.lines[i]
		if l.Index == nil || *l.Index < 0 || *l.Index >= len(ents) || answered[*l.Index] || l.ID != ents[*l.Index].ID {
			continue
		}
		if l.Error != nil {
			continue
		}
		answered[*l.Index] = true
		w.results++
		w.completions = append(w.completions, st.arrived[i])
		if l.Cached {
			w.cacheHits++
		}
		mu.Lock()
		*sent = append(*sent, sentEntity{e: ents[*l.Index], line: l})
		mu.Unlock()
	}
	w.reqs = append(w.reqs, request{from: st.start, end: st.end})
	for i, ok := range answered {
		if !ok {
			w.failed++
			fmt.Printf("failure (pass %d): entity %s: no good result line\n", w.pass, ents[i].ID)
		}
	}
}

// check compares every answered entity with its in-process resolution.
func (r *batchRun) check(sent []sentEntity) (int, error) {
	idx := make(map[*datagen.Entity]int)
	var ins []*relation.Instance
	for _, s := range sent {
		if _, ok := idx[s.e]; !ok {
			idx[s.e] = len(ins)
			ins = append(ins, s.e.Spec.TI.Inst)
		}
	}
	ref, err := resolveReference(r.rs, ins)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, s := range sent {
		if !sameOutcome(s.line.outcomeJSON, ref[idx[s.e]]) {
			bad++
		}
	}
	return bad, nil
}

// probe measures the server's overhead on fresh two-entity batches against
// resolving them in-process, and the coordinator's hop on a cached single
// resolve sent through crshard and straight to its owner.
func (r *batchRun) probe(ctx context.Context, b *bench, lay *layerReport) error {
	var pairs [][]*datagen.Entity
	for i := 0; i+1 < len(r.probes); i += 2 {
		pairs = append(pairs, r.probes[i:i+2])
	}
	var client []time.Duration
	for _, ents := range pairs {
		st, err := r.post(ctx, b.client, b.fleet.entry(), ents)
		if err != nil {
			return err
		}
		client = append(client, st.end.Sub(st.start))
	}
	local, err := timeEach(pairs, func(ents []*datagen.Entity) error {
		_, err := resolveReference(r.rs, []*relation.Instance{ents[0].Spec.TI.Inst, ents[1].Spec.TI.Inst})
		return err
	})
	if err != nil {
		return err
	}
	lay.overhead(client, local)

	e := r.probes[0]
	body := map[string]any{"schema": r.rules.Schema, "currency": r.rules.Currency, "cfds": r.rules.CFDs,
		"entity": batchLine{ID: e.ID, Tuples: wireRows(rowsOf(e))}}
	owner, err := ownerURL(b.fleet, e.ID)
	if err != nil {
		return err
	}
	hop, err := measureHop(ctx, b.client, http.MethodPost, b.fleet.entry()+"/v1/resolve", owner+"/v1/resolve", body)
	if err != nil {
		return err
	}
	lay.values["shard.hop_ms"] = hop
	lay.samples["shard.hop_ms"] = hopProbes
	return nil
}

// ownerURL is the backend crshard routes key to.
func ownerURL(f *fleet, key string) (string, error) {
	ring, err := shard.NewRing(f.backendURLs(), 64)
	if err != nil {
		return "", err
	}
	return f.backends[ring.Owner(key)].url, nil
}

// measureHop sends one request alternately through the coordinator and
// straight to the owner; the hop is the difference of the medians.
func measureHop(ctx context.Context, c *http.Client, method, viaURL, directURL string, body any) (float64, error) {
	var via, direct []time.Duration
	for i := 0; i < hopProbes; i++ {
		for _, u := range []string{viaURL, directURL} {
			st, data, d, err := timedDo(ctx, c, method, u, body)
			if err := expect(st, data, err, http.StatusOK); err != nil {
				return 0, fmt.Errorf("hop probe %s: %w", u, err)
			}
			if u == viaURL {
				via = append(via, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	return median(ms(via)) - median(ms(direct)), nil
}

func (r *batchRun) replay(tr *tracer, lay *layerReport) error {
	return replayLayers(tr, lay, r.rs, r.ents, r.rules.Schema)
}
