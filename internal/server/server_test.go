package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"conflictres"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// edithRules is the paper's running example as a wire rule set.
func edithRules() ruleSetJSON {
	return ruleSetJSON{
		Schema: []string{"name", "status", "job", "kids", "city", "AC", "zip", "county"},
		Currency: []string{
			`t1[status] = "working" & t2[status] = "retired" -> t1 <[status] t2`,
			`t1[status] = "retired" & t2[status] = "deceased" -> t1 <[status] t2`,
			`t1[kids] < t2[kids] -> t1 <[kids] t2`,
			`t1 <[status] t2 -> t1 <[job] t2`,
			`t1 <[status] t2 -> t1 <[AC] t2`,
			`t1 <[status] t2 -> t1 <[zip] t2`,
			`t1 <[city] t2 & t1 <[zip] t2 -> t1 <[county] t2`,
		},
		CFDs: []string{
			`AC = "213" => city = "LA"`,
			`AC = "212" => city = "NY"`,
		},
	}
}

// edithTuples renders entity #i's three tuples as raw NDJSON-able rows.
func edithTuples(i int) string {
	name := fmt.Sprintf("Edith %d", i)
	return fmt.Sprintf(`[
		["%s","working","nurse",%d,"NY","212","10036","Manhattan"],
		["%s","retired","n/a",%d,"SFC","415","94924","Dogtown"],
		["%s","deceased","n/a",null,"LA","213","90058","Vermont"]]`,
		name, i%4, name, i%4+3, name)
}

func edithRequestBody(t *testing.T, i int) []byte {
	t.Helper()
	rules := edithRules()
	rj, err := json.Marshal(rules)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"schema":%s,"currency":%s,"cfds":%s,"entity":{"id":"e%d","tuples":%s}}`,
		mustField(t, rj, "schema"), mustField(t, rj, "currency"), mustField(t, rj, "cfds"), i, edithTuples(i))
	return []byte(body)
}

func mustField(t *testing.T, obj []byte, field string) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(obj, &m); err != nil {
		t.Fatal(err)
	}
	return string(m[field])
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestResolveSingle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/resolve", edithRequestBody(t, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out resultJSON
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad response %s: %v", data, err)
	}
	if !out.Valid || out.ID != "e0" {
		t.Fatalf("got %+v", out)
	}
	if out.Resolved["city"] != "LA" || out.Resolved["status"] != "deceased" {
		t.Errorf("resolved = %v", out.Resolved)
	}
	if out.Resolved["kids"] != float64(3) { // json numbers decode as float64
		t.Errorf("kids = %v", out.Resolved["kids"])
	}
	if out.Timing == nil {
		t.Error("timing missing")
	}
	if out.Cached {
		t.Error("first request must not be cached")
	}
}

func TestResolveCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := edithRequestBody(t, 1)
	_, first := postJSON(t, ts.URL+"/v1/resolve", body)
	_, second := postJSON(t, ts.URL+"/v1/resolve", body)
	var a, b resultJSON
	if err := json.Unmarshal(first, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &b); err != nil {
		t.Fatal(err)
	}
	if a.Cached || !b.Cached {
		t.Fatalf("cached flags: first %v, second %v", a.Cached, b.Cached)
	}
	if fmt.Sprint(a.Resolved) != fmt.Sprint(b.Resolved) {
		t.Errorf("cached answer differs: %v vs %v", a.Resolved, b.Resolved)
	}
	hits, _, _ := s.results.stats()
	if hits < 1 {
		t.Errorf("cache hits = %d", hits)
	}
}

func TestResolveInvalidRulesError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := []byte(`{"schema":["a"],"currency":["garbage"],"entity":{"tuples":[["x"]]}}`)
	resp, data := postJSON(t, ts.URL+"/v1/resolve", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out map[string]errorJSON
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("error body not structured JSON: %s", data)
	}
	if out["error"].Code != codeBadRules || out["error"].Message == "" {
		t.Errorf("got %+v", out)
	}
}

func TestResolveInvalidEntityError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Tuple arity does not match the schema.
	body := []byte(`{"schema":["a","b"],"entity":{"tuples":[["x"]]}}`)
	resp, data := postJSON(t, ts.URL+"/v1/resolve", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out map[string]errorJSON
	if err := json.Unmarshal(data, &out); err != nil || out["error"].Code != codeBadEntity {
		t.Errorf("got %s", data)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := append([]byte(`{"schema":["a"],"entity":{"id":"`), bytes.Repeat([]byte("x"), 1024)...)
	big = append(big, []byte(`","tuples":[["y"]]}}`)...)
	resp, data := postJSON(t, ts.URL+"/v1/resolve", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out map[string]errorJSON
	if err := json.Unmarshal(data, &out); err != nil || out["error"].Code != codeTooLarge {
		t.Errorf("got %s", data)
	}
}

func TestBatchNDJSONStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	rules := edithRules()
	hj, err := json.Marshal(rules)
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	in.Write(hj)
	in.WriteByte('\n')
	const n = 6
	for i := 0; i < n; i++ {
		fmt.Fprintf(&in, `{"id":"e%d","tuples":%s}`+"\n", i, strings.ReplaceAll(edithTuples(i), "\n", ""))
	}
	in.WriteString("not json\n") // one malformed line mid-stream

	resp, err := http.Post(ts.URL+"/v1/resolve/batch", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}

	got := make(map[int]resultJSON)
	var badLines int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r resultJSON
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad result line %q: %v", sc.Text(), err)
		}
		if r.Index == nil {
			t.Fatalf("result line without index: %q", sc.Text())
		}
		if r.Error != nil {
			badLines++
			continue
		}
		got[*r.Index] = r
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if badLines != 1 {
		t.Errorf("malformed-line errors = %d, want 1", badLines)
	}
	if len(got) != n {
		t.Fatalf("resolved %d entities, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		r, ok := got[i]
		if !ok {
			t.Fatalf("entity %d missing", i)
		}
		if r.ID != fmt.Sprintf("e%d", i) || !r.Valid || r.Resolved["city"] != "LA" {
			t.Errorf("entity %d: %+v", i, r)
		}
	}
}

func TestRunTimedDeadline(t *testing.T) {
	released := make(chan struct{})
	start := time.Now()
	_, err := runTimed(context.Background(), 5*time.Millisecond, func() { close(released) }, func() int {
		time.Sleep(80 * time.Millisecond)
		return 42
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if el := time.Since(start); el > 60*time.Millisecond {
		t.Errorf("runTimed returned after %v, deadline was 5ms", el)
	}
	select {
	case <-released:
		t.Fatal("done callback fired before the work finished")
	default:
	}
	// The abandoned goroutine still completes and releases its slot.
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("done callback never fired after work completed")
	}

	v, err := runTimed(context.Background(), time.Second, nil, func() string { return "ok" })
	if err != nil || v != "ok" {
		t.Fatalf("fast path: %v, %v", v, err)
	}
}

func TestBatchOversizedHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	long := bytes.Repeat([]byte("x"), 1024)
	resp, data := postJSON(t, ts.URL+"/v1/resolve/batch", append(long, '\n'))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out map[string]errorJSON
	if err := json.Unmarshal(data, &out); err != nil || out["error"].Code != codeTooLarge {
		t.Errorf("got %s", data)
	}
}

func TestBatchOversizedLineMidStream(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 2048})
	var in bytes.Buffer
	in.WriteString(`{"schema":["a"]}` + "\n")
	in.WriteString(`{"id":"ok","tuples":[["x"]]}` + "\n")
	fmt.Fprintf(&in, `{"id":"huge","tuples":[["%s"]]}`+"\n", bytes.Repeat([]byte("y"), 4096))
	resp, data := postJSON(t, ts.URL+"/v1/resolve/batch", in.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sawOK, sawAbort bool
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var r resultJSON
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		switch {
		case r.ID == "ok" && r.Valid:
			sawOK = true
		case r.Error != nil && r.Error.Code == codeTooLarge:
			sawAbort = true
		}
	}
	if !sawOK || !sawAbort {
		t.Errorf("sawOK=%v sawAbort=%v in:\n%s", sawOK, sawAbort, data)
	}
}

func TestBatchRejectsBadHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/resolve/batch", []byte("{bad\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/resolve/batch", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
}

func TestValidateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/validate", edithRequestBody(t, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Valid  bool   `json:"valid"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(data, &out); err != nil || !out.Valid {
		t.Fatalf("got %s", data)
	}

	// Contradictory currency constraints: a-order implies b-order both ways.
	bad := []byte(`{"schema":["a","b"],
		"currency":["t1[a] < t2[a] -> t1 <[b] t2", "t1[a] > t2[a] -> t1 <[b] t2"],
		"entity":{"tuples":[[1,"x"],[2,"y"]]},"explain":true}`)
	resp, data = postJSON(t, ts.URL+"/v1/validate", bad)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Valid {
		t.Fatal("contradictory spec reported valid")
	}
	if out.Reason == "" {
		t.Error("explain=true must produce a reason")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Generate traffic, then check the counters show up.
	postJSON(t, ts.URL+"/v1/resolve", edithRequestBody(t, 2))
	postJSON(t, ts.URL+"/v1/resolve", edithRequestBody(t, 2))
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		`crserve_requests_total{endpoint="resolve"} 2`,
		`crserve_entities_total{outcome="resolved"} 1`, // second request hit the cache
		`crserve_cache_hits_total 1`,
		`crserve_phase_seconds_total{phase="encode"}`,
		`crserve_phase_seconds_total{phase="load"}`,
		`crserve_phase_seconds_total{phase="deduce"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestPoolMetrics: the resolve path runs on pooled pipelines, and /metrics
// exposes the module-wide pool counters. The counters are process-global
// (shared with every other test), so the assertions are presence plus
// monotonic growth across distinct-entity traffic.
func TestPoolMetrics(t *testing.T) {
	before := conflictres.PoolCounters()
	_, ts := newTestServer(t, Config{})
	// Distinct entities: both are cache misses, so both check a pipeline
	// out of the rule set's pool (the second checkout is a pool hit).
	postJSON(t, ts.URL+"/v1/resolve", edithRequestBody(t, 0))
	postJSON(t, ts.URL+"/v1/resolve", edithRequestBody(t, 1))
	after := conflictres.PoolCounters()
	if got := after.Hits + after.Misses - before.Hits - before.Misses; got < 2 {
		t.Errorf("pool checkouts grew by %d, want >= 2", got)
	}
	if after.Misses == before.Misses && after.Hits == before.Hits {
		t.Error("pool counters did not move")
	}
	if after.SkeletonRebuilds < before.SkeletonRebuilds {
		t.Error("skeleton rebuild counter went backwards")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		"crserve_pool_hits_total ",
		"crserve_pool_misses_total ",
		"crserve_pool_skeleton_rebuilds_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestConcurrentTrafficRace hammers the cache and both resolve paths from
// many goroutines; `go test -race` watches for unsynchronized access.
func TestConcurrentTrafficRace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	rules := edithRules()
	hj, err := json.Marshal(rules)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				for i := 0; i < 4; i++ {
					resp, data := postJSON(t, ts.URL+"/v1/resolve", edithRequestBody(t, i))
					if resp.StatusCode != http.StatusOK {
						t.Errorf("resolve status %d: %s", resp.StatusCode, data)
					}
				}
				return
			}
			var in bytes.Buffer
			in.Write(hj)
			in.WriteByte('\n')
			for i := 0; i < 4; i++ {
				fmt.Fprintf(&in, `{"id":"g%d-%d","tuples":%s}`+"\n", g, i,
					strings.ReplaceAll(edithTuples(i), "\n", ""))
			}
			resp, err := http.Post(ts.URL+"/v1/resolve/batch", "application/x-ndjson", &in)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(g)
	}
	wg.Wait()
}
