package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"testing"
	"time"
)

// streamCase is one NDJSON streaming endpoint under test: a header line and
// a generator for the i-th body line.
type streamCase struct {
	name   string
	url    string
	header []byte
	line   func(i int) []byte
	// perResult is how many body lines make one result line.
	perResult int
}

// streamCases covers the three endpoints that resolve while the upload is
// still arriving: crserve batch and dataset, and crshard batch (one entity
// per sub-batch, so every line is dispatched as soon as it is read).
func streamCases(t *testing.T) []streamCase {
	t.Helper()
	backend := newBackendURL(t)
	_, coord := newShard(t, []string{backend}, func(c *Config) { c.ChunkEntities = 1 })

	batchHeader := marshalLine(t, edithWireRules())
	entity := func(i int) []byte {
		e := edithEntity(0) // same tuples every time: resolved once, then cached
		e["id"] = fmt.Sprintf("e%d", i)
		return marshalLine(t, e)
	}
	dsHeader := edithWireRules()
	dsHeader["key"] = []string{"entity"}
	dsHeader["sorted"] = true
	row := func(i int) []byte {
		status, kids := "retired", any(3)
		if i%2 == 1 {
			status, kids = "deceased", nil
		}
		return marshalLine(t, map[string]any{
			"entity": fmt.Sprintf("e%d", i/2), "name": "Edith", "status": status,
			"job": "n/a", "kids": kids, "city": "LA", "AC": "213", "zip": "90058", "county": "Vermont",
		})
	}
	return []streamCase{
		{"crserve-batch", backend + "/v1/resolve/batch", batchHeader, entity, 1},
		{"crserve-dataset", backend + "/v1/resolve/dataset", marshalLine(t, dsHeader), row, 2},
		{"crshard-batch", coord + "/v1/resolve/batch", batchHeader, entity, 1},
	}
}

// upload is an open streaming POST: the test writes body lines while the
// response is read.
type upload struct {
	pw    *io.PipeWriter
	lines chan string   // response lines, closed at the end of the response
	err   chan error    // transport or status failure, at most one
	done  chan struct{} // closed when the test ends
}

func startUpload(t *testing.T, url string, header []byte) *upload {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	u := &upload{pw: pw, lines: make(chan string), err: make(chan error, 1), done: make(chan struct{})}
	go func() {
		defer close(u.lines)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			u.err <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			u.err <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			select {
			case u.lines <- sc.Text():
			case <-u.done: // the test stopped reading
				return
			}
		}
		if err := sc.Err(); err != nil {
			u.err <- err
		}
	}()
	t.Cleanup(func() {
		close(u.done)
		pw.CloseWithError(io.ErrClosedPipe)
	})
	u.write(t, header)
	return u
}

func (u *upload) write(t *testing.T, line []byte) {
	t.Helper()
	if _, err := u.pw.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
}

// finish sends body lines [from, to) and ends the upload on its own
// goroutine, so the caller can read results while the body is still going
// out. A failed write surfaces as a short or broken response.
func (u *upload) finish(tc streamCase, from, to int) {
	go func() {
		for i := from; i < to; i++ {
			if _, err := u.pw.Write(append(tc.line(i), '\n')); err != nil {
				return
			}
		}
		u.pw.Close()
	}()
}

// drain reads the rest of the response, returning the number of result
// lines (lines that are not a dataset summary) and failing on error lines.
func (u *upload) drain(t *testing.T) int {
	t.Helper()
	n := 0
	for l := range u.lines {
		var res struct {
			resultLine
			Summary json.RawMessage `json:"summary"`
		}
		if err := json.Unmarshal([]byte(l), &res); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
		if res.Error != nil {
			t.Fatalf("error line: %s", l)
		}
		if res.Summary == nil {
			n++
		}
	}
	select {
	case err := <-u.err:
		t.Fatal(err)
	default:
	}
	return n
}

// TestFirstResultBeforeUploadEnds pins full-duplex streaming over real
// HTTP/1.1: the first result line reaches the client while its request body
// is still open, so time to first result does not grow with upload length.
func TestFirstResultBeforeUploadEnds(t *testing.T) {
	for _, tc := range streamCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			u := startUpload(t, tc.url, tc.header)
			// Two results' worth of lines: the second completes the first
			// dataset entity (sorted input flushes on the next key).
			sent := 2 * tc.perResult
			for i := 0; i < sent; i++ {
				u.write(t, tc.line(i))
			}
			select {
			case l, ok := <-u.lines:
				if !ok {
					t.Fatalf("response ended early: %v", <-u.err)
				}
				var res resultLine
				if err := json.Unmarshal([]byte(l), &res); err != nil || res.Error != nil || !res.Valid {
					t.Fatalf("first line %q is not a valid result (%v)", l, err)
				}
			case err := <-u.err:
				t.Fatal(err)
			case <-time.After(10 * time.Second):
				t.Fatal("no result line within 10s while the upload is still open")
			}
			u.finish(tc, sent, sent+4*tc.perResult)
			if got, want := 1+u.drain(t), sent/tc.perResult+4; got != want {
				t.Fatalf("got %d results, want %d", got, want)
			}
		})
	}
}

// peakHeap runs fn and returns the largest heap-object footprint sampled
// while it ran, garbage included, read through runtime/metrics.
func peakHeap(fn func()) uint64 {
	runtime.GC()
	sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	stop, peak := make(chan struct{}), make(chan uint64)
	go func() {
		var max uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	return <-peak
}

// TestStreamHeapFlatInN streams a short and a ten-times-longer upload
// through each endpoint and requires the peak heap to stay flat: results
// leave as they complete, so memory is bounded by the worker pool and the
// grouping window, not by the stream length.
func TestStreamHeapFlatInN(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 100k lines")
	}
	for _, tc := range streamCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			short := 10000
			if tc.perResult == 1 {
				short = 2000 // batch lines cost a round trip or a solver call each
			}
			var peaks [2]uint64
			for k, n := range []int{short, 10 * short} {
				peaks[k] = peakHeap(func() {
					u := startUpload(t, tc.url, tc.header)
					u.finish(tc, 0, n)
					if got := u.drain(t); got != n/tc.perResult {
						t.Fatalf("got %d results for %d lines", got, n)
					}
				})
			}
			ratio := float64(peaks[1]) / float64(peaks[0])
			t.Logf("peak heap %d B at %d lines, %d B at %d lines (%.2fx)", peaks[0], short, peaks[1], 10*short, ratio)
			if ratio > 1.5 {
				t.Fatalf("peak heap grew %.2fx for a 10x longer stream, want <= 1.5x", ratio)
			}
		})
	}
}
