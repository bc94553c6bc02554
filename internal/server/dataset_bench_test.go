package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"conflictres"
	"conflictres/internal/datagen"
)

// personStream is the entity count of one benchmark dataset stream.
const personStream = 48

// personWorldT is the Person world the fleet benchmark's dataset workload
// streams: datagen.Person at seed 1 with 2–8 rows per entity, under its ~2k
// generated rules (983 currency constraints, 1000 CFDs).
type personWorldT struct {
	wire  ruleSetJSON
	rules *conflictres.RuleSet
	ents  []*datagen.Entity
	body  []byte // one sorted dataset stream of every entity
}

var (
	personWorldOnce sync.Once
	personWorldVal  *personWorldT
	personWorldErr  error
)

func personWorld(tb testing.TB) *personWorldT {
	tb.Helper()
	personWorldOnce.Do(func() {
		ds := datagen.Person(datagen.PersonConfig{Entities: personStream, MinTuples: 2, MaxTuples: 8, Seed: 1})
		w := &personWorldT{ents: ds.Entities, wire: ruleSetJSON{Schema: ds.Schema.Names()}}
		for _, c := range ds.Sigma {
			w.wire.Currency = append(w.wire.Currency, c.Format(ds.Schema))
		}
		for _, c := range ds.Gamma {
			w.wire.CFDs = append(w.wire.CFDs, c.Format(ds.Schema))
		}
		if w.rules, personWorldErr = compileWireRules(&w.wire); personWorldErr != nil {
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		personWorldErr = enc.Encode(datasetHeader{ruleSetJSON: w.wire, Key: []string{"entity"},
			Columns: append([]string{"entity"}, w.wire.Schema...), Sorted: true})
		for _, e := range w.ents {
			in := e.Spec.TI.Inst
			for id := range in.Len() {
				row := []any{e.ID}
				for _, v := range in.Tuple(conflictres.TupleID(id)) {
					row = append(row, v.AsJSON())
				}
				if err := enc.Encode(row); err != nil && personWorldErr == nil {
					personWorldErr = err
				}
			}
		}
		w.body = buf.Bytes()
		personWorldVal = w
	})
	if personWorldErr != nil {
		tb.Fatal(personWorldErr)
	}
	return personWorldVal
}

// BenchmarkDatasetStream measures POST /v1/resolve/dataset in process, one
// op per 48-entity Person stream through Server.Handler: header decode, the
// rule-cache lookup, grouping, per-entity cache keys, scheduling, resolution
// and result lines. The result cache is disabled so every op resolves every
// entity, as the fleet benchmark's stream of distinct entities does; each
// entity still computes its cache key. Person carries ~2k rules, so any
// per-entity cost that grows with the rule set shows here and not in the
// root package's 9-rule BenchmarkResolveDataset.
func BenchmarkDatasetStream(b *testing.B) {
	b.Run("person", func(b *testing.B) {
		pw := personWorld(b)
		s := New(Config{CacheSize: -1})
		b.Cleanup(s.Close)
		h := s.Handler()
		stream := func() int {
			req := httptest.NewRequest(http.MethodPost, "/v1/resolve/dataset", bytes.NewReader(pw.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
			lines := 0
			sc := bufio.NewScanner(rec.Body)
			for sc.Scan() {
				lines++
			}
			return lines - 1 // the summary line
		}
		if got := stream(); got != personStream { // warms the rule cache and the pipeline pool
			b.Fatalf("got %d results, want %d", got, personStream)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			stream()
		}
		b.ReportMetric(float64(personStream)*float64(b.N)/b.Elapsed().Seconds(), "entities/s")
	})
}
