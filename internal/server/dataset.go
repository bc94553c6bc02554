package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"conflictres"
	"conflictres/internal/dataset"
	"conflictres/internal/relation"
)

// datasetHeader is the first NDJSON line of a dataset-resolution request.
// It extends the shared rule-set header with the dataset shape: which
// columns identify an entity, and (for array-shaped rows) the column list.
type datasetHeader struct {
	ruleSetJSON
	// Key names the entity-key columns. Required.
	Key []string `json:"key"`
	// Columns, when present, declares array-shaped rows aligned to this
	// column list; when absent, rows are objects mapping column names to
	// values.
	Columns []string `json:"columns,omitempty"`
	// Sorted declares the stream clustered by key (entities flush eagerly).
	Sorted bool `json:"sorted,omitempty"`
	// WindowRows overrides the grouping window (bounded server-side).
	WindowRows int `json:"windowRows,omitempty"`
	MaxRounds  int `json:"maxRounds,omitempty"`
	// Mode selects the resolution strategy for every entity in the stream.
	Mode string `json:"mode,omitempty"`
}

// maxWindowRows caps client-requested grouping windows so one request
// cannot buffer unbounded rows server-side.
const maxWindowRows = 1 << 20

// readLineBounded reads one newline-terminated line from br, failing with
// bufio.ErrTooLong once the line exceeds max bytes — it never buffers more
// than max, so a header with no newline cannot exhaust server memory.
func readLineBounded(br *bufio.Reader, max int64) (string, error) {
	var sb strings.Builder
	for {
		chunk, err := br.ReadSlice('\n')
		if int64(sb.Len())+int64(len(chunk)) > max {
			return "", bufio.ErrTooLong
		}
		sb.Write(chunk)
		switch err {
		case nil:
			return sb.String(), nil
		case bufio.ErrBufferFull:
			continue
		default:
			// io.EOF (possibly with a final unterminated line) or a read
			// failure; report it with whatever was gathered.
			return sb.String(), err
		}
	}
}

// codedErr carries an error-envelope code through the dataset engine.
type codedErr struct {
	code string
	err  error
}

func (e *codedErr) Error() string { return e.err.Error() }
func (e *codedErr) Unwrap() error { return e.err }

func errCode(err error) string {
	var ce *codedErr
	if errors.As(err, &ce) {
		return ce.code
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return codeTimeout
	}
	return codeResolveFail
}

// valueFromAny converts a cached wire value (string/int64/float64/nil, as
// produced by encodeValue) back into a relation value.
func valueFromAny(v any) relation.Value {
	switch x := v.(type) {
	case string:
		return relation.String(x)
	case int64:
		return relation.Int(x)
	case float64:
		return relation.Float(x)
	default:
		return relation.Null
	}
}

// toOutcome rehydrates a cached result for the dataset path.
func (c *cachedResult) toOutcome(sch *conflictres.Schema) dataset.Outcome {
	out := dataset.Outcome{Valid: c.Valid, Cached: true}
	if !c.Valid {
		return out
	}
	out.Tuple = make(relation.Tuple, len(c.Tuple))
	for i, v := range c.Tuple {
		out.Tuple[i] = valueFromAny(v)
	}
	out.Resolved = make(map[relation.Attr]relation.Value, len(c.Resolved))
	for name, v := range c.Resolved {
		if a, ok := sch.Attr(name); ok {
			out.Resolved[a] = valueFromAny(v)
		}
	}
	return out
}

// datasetResolver resolves grouped entities through the server's result
// cache and per-entity deadline, mirroring resolveEntity for wire entities.
// The solver is not preemptible, so a timed-out run is abandoned; sem ties
// its slot to the solver actually finishing (like the batch path's
// release), so cfg.Workers bounds true solver concurrency even when shards
// move on after timeouts.
func (s *Server) datasetResolver(ctx context.Context, rules *conflictres.RuleSet, rk cacheKey, maxRounds int, mode conflictres.ResolutionMode, sem chan struct{}) dataset.Resolver {
	return func(key string, in *relation.Instance) dataset.Outcome {
		spec, err := conflictres.NewSpecFromRules(in, rules)
		if err != nil {
			return dataset.Outcome{Err: &codedErr{codeBadEntity, err}}
		}
		s.met.observeMode(mode.Strategy)
		ckey := specKey(rk, spec, nil, mode)
		if v, ok := s.results.get(ckey); ok {
			return v.(*cachedResult).toOutcome(rules.Schema())
		}
		type outcome struct {
			res *conflictres.Result
			err error
		}
		sem <- struct{}{}
		o, err := runTimed(ctx, s.cfg.Timeout, func() { <-sem }, func() outcome {
			res, err := rules.Resolve(spec, nil, conflictres.Options{MaxRounds: maxRounds, Mode: mode})
			return outcome{res, err}
		})
		if err != nil {
			return dataset.Outcome{Err: &codedErr{codeTimeout, err}}
		}
		if o.err != nil {
			return dataset.Outcome{Err: &codedErr{codeResolveFail, o.err}}
		}
		s.met.observe(o.res)
		s.results.put(ckey, toCached(encodeResult(rules.Schema(), o.res)))
		return dataset.Outcome{
			Valid:    o.res.Valid,
			Tuple:    o.res.Tuple,
			Resolved: o.res.Resolved,
			Timing:   o.res.Timing,
		}
	}
}

// wireWriter adapts the HTTP response to the dataset engine's Writer: one
// resultJSON line per entity, flushed as it completes.
type wireWriter struct {
	enc *json.Encoder
	rc  *http.ResponseController
	sch *conflictres.Schema
	met *metrics
}

func (w *wireWriter) Write(res *dataset.Result) error {
	out := &resultJSON{ID: dataset.DisplayKey(res.Key), Rows: res.Rows, Cached: res.Cached}
	if res.Err != nil {
		w.met.entitiesFailed.Add(1)
		out.Error = &errorJSON{Code: errCode(res.Err), Message: res.Err.Error()}
	} else if res.Valid {
		out.Valid = true
		out.Resolved = make(map[string]any, len(res.Resolved))
		for a, v := range res.Resolved {
			out.Resolved[w.sch.Name(a)] = encodeValue(v)
		}
		out.Tuple = make([]any, len(res.Tuple))
		for i, v := range res.Tuple {
			out.Tuple[i] = encodeValue(v)
		}
	}
	if err := w.enc.Encode(out); err != nil {
		return err
	}
	w.rc.Flush() // ErrNotSupported only on writers that buffer anyway
	return nil
}

func (w *wireWriter) Flush() error { return nil }

// datasetSummaryJSON is the trailing summary line of a dataset response.
type datasetSummaryJSON struct {
	Rows     int64 `json:"rows"`
	Entities int64 `json:"entities"`
	Resolved int64 `json:"resolved"`
	Invalid  int64 `json:"invalid"`
	Failed   int64 `json:"failed"`
	Cached   int64 `json:"cached"`
	Windows  int64 `json:"windows"`
	// SplitEntities counts keys resolved more than once because their rows
	// spanned a grouping-window flush — each chunk computed from a partial
	// instance; cluster the stream by key or raise windowRows.
	SplitEntities int64 `json:"splitEntities,omitempty"`
	// Dropped counts results lost after a response-write failure; the
	// outcome counters above only describe result lines actually sent.
	Dropped    int64   `json:"dropped,omitempty"`
	WallUs     int64   `json:"wallUs"`
	RowsPerSec float64 `json:"rowsPerSec"`
}

// handleDataset is POST /v1/resolve/dataset: NDJSON streaming over a whole
// relation. The header line carries the rule set plus the dataset shape
// (key columns, optional column list); every following line is one row.
// Rows are grouped into entities, resolved over the worker pool through
// the result cache, and streamed back one result line per entity followed
// by a summary line.
func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	s.met.datasetRequests.Add(1)
	// Result lines go out while rows are still arriving, so memory is
	// bounded by the grouping window and the worker pool, not the stream.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex() // ErrNotSupported only on writers that buffer anyway
	br := bufio.NewReaderSize(r.Body, 64<<10)
	headerLine, err := readLineBounded(br, s.cfg.MaxBodyBytes)
	if errors.Is(err, bufio.ErrTooLong) {
		s.writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Sprintf("header line exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	if err != nil && headerLine == "" {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "empty dataset: missing header line")
		return
	}
	var hdr datasetHeader
	if err := json.Unmarshal([]byte(headerLine), &hdr); err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "bad header line: "+err.Error())
		return
	}
	if len(hdr.Key) == 0 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, `header needs "key": [column, ...]`)
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
	sch := rules.Schema()

	var reader *dataset.NDJSONReader
	if len(hdr.Columns) > 0 {
		reader, err = dataset.NewNDJSONArrayReader(br, sch, hdr.Columns, hdr.Key)
	} else {
		reader, err = dataset.NewNDJSONReader(br, sch, hdr.Key)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	// Row lines obey the same size cap as the header and batch lines.
	reader.SetMaxLineBytes(int(s.cfg.MaxBodyBytes))

	windowRows := hdr.WindowRows
	if windowRows > maxWindowRows {
		windowRows = maxWindowRows
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	ww := &wireWriter{enc: enc, rc: rc, sch: sch, met: s.met}

	sem := make(chan struct{}, s.cfg.Workers)
	stats, runErr := dataset.Run(r.Context(), sch, reader,
		s.datasetResolver(r.Context(), rules, rk, hdr.MaxRounds, mode, sem), ww,
		dataset.Options{
			Shards:     s.cfg.Workers,
			WindowRows: windowRows,
			Sorted:     hdr.Sorted,
		})
	s.met.datasetRows.Add(stats.RowsRead)
	if runErr != nil {
		// The status line is long gone; report the failure in-band.
		code, _ := scanErrClass(runErr)
		enc.Encode(&resultJSON{Error: &errorJSON{Code: code, Message: "stream aborted: " + runErr.Error()}})
	}
	enc.Encode(map[string]*datasetSummaryJSON{"summary": {
		Rows:          stats.RowsRead,
		Entities:      stats.Entities,
		Resolved:      stats.Resolved,
		Invalid:       stats.Invalid,
		Failed:        stats.Failed,
		Cached:        stats.Cached,
		Windows:       stats.Windows,
		SplitEntities: stats.SplitEntities,
		Dropped:       stats.Dropped,
		WallUs:        int64(stats.Wall / time.Microsecond),
		RowsPerSec:    stats.RowsPerSec(),
	}})
}
