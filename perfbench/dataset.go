package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"conflictres"
	"conflictres/internal/datagen"
	"conflictres/internal/relation"
)

// personPerSecond sizes the dataset-person stream: entities uploaded per
// second of --seconds, about what one crserve resolves per second on the
// reference box, so the stream lasts roughly the requested window.
const personPerSecond = 16

// streamLimit is the dataset workload's latency limit per stream, a few
// times what one stream takes on the reference box.
const streamLimit = 15 * time.Second

// datasetProbes is the number of single-entity streams timed against an
// in-process resolve for server.overhead_ms.
const datasetProbes = 8

// datasetRun streams clustered Person rows to one crserve through
// POST /v1/resolve/dataset.
type datasetRun struct {
	rules  rulesJSON
	rs     *conflictres.RuleSet
	ents   []*datagen.Entity
	warmE  *datagen.Entity
	probes []*datagen.Entity
}

func prepareDataset(seed int64, seconds int) (runner, error) {
	n := personPerSecond * seconds
	need := n + 1 + datasetProbes
	ds := datagen.Person(datagen.PersonConfig{
		Entities: 2 * need, MinTuples: 2, MaxTuples: 8, Seed: worldSeed})
	rules, rs, err := ruleTexts(ds)
	if err != nil {
		return nil, err
	}
	e, err := sample(seed, ds.Entities, need)
	if err != nil {
		return nil, err
	}
	return &datasetRun{rules: rules, rs: rs, ents: e[:n], warmE: e[n], probes: e[n+1:]}, nil
}

// datasetHeader is the stream's first line: the rule set plus the row shape.
type datasetHeader struct {
	rulesJSON
	Key     []string `json:"key"`
	Columns []string `json:"columns"`
	Sorted  bool     `json:"sorted"`
}

// streamStats is what one dataset stream observed.
type streamStats struct {
	start, firstAt, endAt time.Time
	lines                 map[string]resultLine
}

// stream uploads ents as one clustered dataset stream and collects the
// result lines. Rows go out while earlier ones are still being resolved;
// the server answers once the upload is complete.
func (d *datasetRun) stream(ctx context.Context, c *http.Client, url string, ents []*datagen.Entity) (*streamStats, error) {
	hdr := datasetHeader{rulesJSON: d.rules, Key: []string{"entity"},
		Columns: append([]string{"entity"}, d.rules.Schema...), Sorted: true}
	st := &streamStats{lines: make(map[string]resultLine, len(ents))}
	pr, pw := io.Pipe()
	wrote := make(chan error, 1)
	st.start = time.Now()
	go func() {
		bw := bufio.NewWriterSize(pw, 32<<10)
		enc := json.NewEncoder(bw)
		err := enc.Encode(hdr)
		for _, e := range ents {
			for _, t := range rowsOf(e) {
				if err == nil {
					err = enc.Encode(append([]any{e.ID}, wireRow(t)...))
				}
			}
		}
		if err == nil {
			err = bw.Flush()
		}
		pw.CloseWithError(err)
		wrote <- err
	}()
	defer func() {
		pr.Close() // unblocks the writer if the response ended early
		<-wrote
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/resolve/dataset", pr)
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
		return nil, fmt.Errorf("dataset stream: status %d: %.200s", resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	summary := false
	for sc.Scan() {
		now := time.Now()
		if st.firstAt.IsZero() {
			st.firstAt = now
		}
		var line resultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("dataset result line: %w", err)
		}
		if len(line.Summary) > 0 {
			summary = true
			st.endAt = now
			continue
		}
		st.lines[line.ID] = line
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !summary {
		return nil, fmt.Errorf("dataset stream ended without a summary line")
	}
	return st, nil
}

func (d *datasetRun) warm(ctx context.Context, b *bench) error {
	st, err := d.stream(ctx, b.client, b.fleet.entry(), []*datagen.Entity{d.warmE})
	if err != nil {
		return err
	}
	if l, ok := st.lines[d.warmE.ID]; !ok || l.Error != nil {
		return fmt.Errorf("warm-up entity not resolved: %+v", l.Error)
	}
	return nil
}

// window uploads the run's entities as `slices` consecutive streams, one
// per slice, so each slice's throughput is one stream's.
func (d *datasetRun) window(ctx context.Context, b *bench, pass int, tr *tracer) (*window, error) {
	ents := d.ents
	w := newWindow(pass)
	w.attempted, w.limit = len(ents), streamLimit
	got := make([]resultLine, len(ents))
	present := make([]bool, len(ents))
	per := len(ents) / slices
	t0 := time.Now()
	for i := 0; i < slices; i++ {
		lo, hi := i*per, (i+1)*per
		if i == slices-1 {
			hi = len(ents)
		}
		var st *streamStats
		var err error
		w.timed++
		tr.do("loadgen.dataset", 0, int64(i+1), func(int64) {
			st, err = d.stream(ctx, b.client, b.fleet.entry(), ents[lo:hi])
		})
		if err != nil {
			return nil, err
		}
		good := 0
		for j := lo; j < hi; j++ {
			e := ents[j]
			l, ok := st.lines[e.ID]
			switch {
			case !ok:
				w.fail("entity %s: no result line", e.ID)
			case l.Error != nil:
				w.fail("entity %s: %s: %s", e.ID, l.Error.Code, l.Error.Message)
			default:
				got[j], present[j] = l, true
				good++
				if l.Cached {
					w.cacheHits++
				}
			}
		}
		r := request{from: st.start, end: st.endAt}
		w.results += good
		w.reqs = append(w.reqs, r)
		w.firstResult = append(w.firstResult, st.firstAt.Sub(st.start))
		w.sliceEPS = append(w.sliceEPS, ratio(float64(good), r.latency().Seconds()))
	}
	w.elapsed = time.Since(t0)
	w.addCheck(fmt.Sprintf("dataset pass %d against in-process ResolveBatch", pass), func() (int, error) {
		ref, err := d.reference(ents)
		if err != nil {
			return 0, err
		}
		bad := 0
		for i := range ents {
			if present[i] && !sameOutcome(got[i].outcomeJSON, ref[i]) {
				bad++
			}
		}
		return bad, nil
	})
	return w, nil
}

func (d *datasetRun) reference(ents []*datagen.Entity) ([]outcomeJSON, error) {
	ins := make([]*relation.Instance, len(ents))
	for i, e := range ents {
		ins[i] = e.Spec.TI.Inst
	}
	return resolveReference(d.rs, ins)
}

// probe times single-entity streams against the same entity resolved
// in-process on a warm pipeline; the difference is the server's overhead
// per request.
func (d *datasetRun) probe(ctx context.Context, b *bench, lay *layerReport) error {
	var client []time.Duration
	for _, e := range d.probes {
		st, err := d.stream(ctx, b.client, b.fleet.entry(), []*datagen.Entity{e})
		if err != nil {
			return err
		}
		client = append(client, st.endAt.Sub(st.start))
	}
	local, err := timeEach(d.probes, func(e *datagen.Entity) error {
		_, err := d.reference([]*datagen.Entity{e})
		return err
	})
	if err != nil {
		return err
	}
	lay.overhead(client, local)
	return nil
}

func (d *datasetRun) replay(tr *tracer, lay *layerReport) error {
	return replayLayers(tr, lay, d.rs, d.ents, d.rules.Schema)
}
