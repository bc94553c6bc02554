package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval at a layer boundary. Start and End are
// offsets from the tracer's origin; spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only a nil check per boundary.
type tracer struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id and start offset.
func (t *tracer) begin() (int64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), int64(time.Since(t.origin))
}

// end closes a span opened by begin.
func (t *tracer) end(id, start, parent, req int64, name string) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: int64(time.Since(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do records fn as a span named name under parent; fn receives the new
// span's id so it can parent its own children.
func (t *tracer) do(name string, parent, req int64, fn func(id int64)) {
	id, start := t.begin()
	fn(id)
	t.end(id, start, parent, req, name)
}

// layerTimes aggregates spans by name: call count, total time and self time
// (each span minus the part of its interval its children cover).
type layerTimes struct {
	Calls       int
	Total, Self time.Duration
}

// meanTotal is the mean duration per call, children included.
func (l layerTimes) meanTotal() time.Duration {
	if l.Calls == 0 {
		return 0
	}
	return l.Total / time.Duration(l.Calls)
}

// summarize computes per-name totals and self times.
func (t *tracer) summarize() map[string]layerTimes {
	out := make(map[string]layerTimes)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		self := d - covered(children[s.ID], s.Start, s.End)
		lt := out[s.Name]
		lt.Calls++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(self)
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			sum += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
