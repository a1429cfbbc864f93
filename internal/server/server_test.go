package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamcount"
	"streamcount/internal/wire"
)

// newTestServer returns a drained-on-cleanup server owning its engine.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// do performs one in-process request and decodes the JSON response into out
// (when non-nil), returning the status code.
func do(t *testing.T, s *Server, method, target, body string, out any) int {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: undecodable response %q: %v", method, target, w.Body.String(), err)
		}
	}
	return w.Code
}

// seedStream creates stream name and ingests a deterministic ER-ish edge
// set, returning the update count.
func seedStream(t *testing.T, s *Server, name string, n int64, edges int) int {
	t.Helper()
	if code := do(t, s, "POST", "/v1/streams", fmt.Sprintf(`{"name":%q,"n":%d}`, name, n), nil); code != http.StatusCreated {
		t.Fatalf("create stream: status %d", code)
	}
	rng := rand.New(rand.NewSource(42))
	var sb strings.Builder
	sb.WriteString(`{"updates":[`)
	count := 0
	seen := map[[2]int64]bool{}
	for count < edges {
		u, v := rng.Int63n(n), rng.Int63n(n)
		if u == v || seen[[2]int64{u, v}] || seen[[2]int64{v, u}] {
			continue
		}
		seen[[2]int64{u, v}] = true
		if count > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"u":%d,"v":%d}`, u, v)
		count++
	}
	sb.WriteString(`]}`)
	var resp wire.AppendResponse
	if code := do(t, s, "POST", "/v1/streams/"+name+"/edges", sb.String(), &resp); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	if resp.Version != int64(edges) || resp.Appended != edges {
		t.Fatalf("append response %+v, want version=appended=%d", resp, edges)
	}
	return edges
}

func TestHandlerErrors(t *testing.T) {
	static, err := streamcount.NewStream(10, []streamcount.Update{
		{Edge: streamcount.Edge{U: 0, V: 1}, Op: streamcount.Insert},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := streamcount.NewEngine(static)
	t.Cleanup(func() { eng.Close() })
	s, err := New(Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name           string
		method, target string
		body           string
		want           int
	}{
		{"bad json", "POST", "/v1/queries", `{"kind":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/queries", `{"pattren":"triangle"}`, http.StatusBadRequest},
		{"unknown pattern", "POST", "/v1/queries", `{"pattern":"heptadecagon","trials":10}`, http.StatusBadRequest},
		{"missing pattern", "POST", "/v1/queries", `{"kind":"count","trials":10}`, http.StatusBadRequest},
		{"unknown kind", "POST", "/v1/queries", `{"kind":"levitate","pattern":"triangle"}`, http.StatusBadRequest},
		{"unknown stream", "POST", "/v1/queries", `{"stream":"nope","pattern":"triangle","trials":10}`, http.StatusNotFound},
		{"underivable budget", "POST", "/v1/queries", `{"pattern":"triangle","lower_bound":0}`, http.StatusBadRequest},
		{"bad cliques r", "POST", "/v1/queries", `{"kind":"cliques","r":2,"lambda":3,"lower_bound":5}`, http.StatusBadRequest},
		{"bad threshold", "POST", "/v1/queries", `{"kind":"distinguish","pattern":"triangle","trials":10}`, http.StatusBadRequest},
		{"create bad name", "POST", "/v1/streams", `{"name":"a/b","n":10}`, http.StatusBadRequest},
		{"create dotdot name", "POST", "/v1/streams", `{"name":"..","n":10}`, http.StatusBadRequest},
		{"create dotted name", "POST", "/v1/streams", `{"name":"a.b","n":10}`, http.StatusBadRequest},
		{"create reserved name", "POST", "/v1/streams", `{"name":"_default","n":10}`, http.StatusBadRequest},
		{"create empty name", "POST", "/v1/streams", `{"name":"","n":10}`, http.StatusBadRequest},
		{"create bad n", "POST", "/v1/streams", `{"name":"x","n":0}`, http.StatusBadRequest},
		{"append unknown stream", "POST", "/v1/streams/nope/edges", `{"updates":[{"u":0,"v":1}]}`, http.StatusNotFound},
		{"append empty batch", "POST", "/v1/streams/nope/edges", `{"updates":[]}`, http.StatusBadRequest},
		{"append bad op", "POST", "/v1/streams/s/edges", `{"updates":[{"op":"x","u":0,"v":1}]}`, http.StatusBadRequest},
		{"stats unknown stream", "GET", "/v1/streams/nope/stats", "", http.StatusNotFound},
		{"poll unknown id", "GET", "/v1/queries/q999999", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e wire.Error
			if code := do(t, s, tc.method, tc.target, tc.body, &e); code != tc.want {
				t.Errorf("status %d, want %d (error %q)", code, tc.want, e.Error)
			}
			if e.Error == "" {
				t.Error("error body missing")
			}
		})
	}

	// Appending to the static default stream is a conflict, not a 404.
	var e wire.Error
	// An empty path segment never reaches the append handler (the mux
	// redirects the uncleaned path); the named route is the API.
	if code := do(t, s, "POST", "/v1/streams//edges", `{"updates":[{"u":0,"v":1}]}`, nil); code == http.StatusOK {
		t.Errorf("empty name routed unexpectedly: %d", code)
	}
	if err := eng.RegisterStream("frozen", static); err != nil {
		t.Fatal(err)
	}
	if code := do(t, s, "POST", "/v1/streams/frozen/edges", `{"updates":[{"u":0,"v":1}]}`, &e); code != http.StatusConflict {
		t.Errorf("append to static stream: status %d (%q), want 409", code, e.Error)
	}
	// Creating a stream under an already-registered name is a conflict.
	if code := do(t, s, "POST", "/v1/streams", `{"name":"frozen","n":10}`, &e); code != http.StatusConflict {
		t.Errorf("duplicate create: status %d, want 409", code)
	}

	// Append-time update validation is the client's fault: 400, not 500.
	if code := do(t, s, "POST", "/v1/streams", `{"name":"tiny","n":4}`, nil); code != http.StatusCreated {
		t.Fatalf("create tiny: status %d", code)
	}
	for _, body := range []string{
		`{"updates":[{"u":2,"v":2}]}`, // self-loop
		`{"updates":[{"u":0,"v":9}]}`, // out of range
	} {
		if code := do(t, s, "POST", "/v1/streams/tiny/edges", body, &e); code != http.StatusBadRequest {
			t.Errorf("invalid update %s: status %d (%q), want 400", body, code, e.Error)
		}
	}

	// So is declaring more vertices than a packed edge key can tell apart.
	if code := do(t, s, "POST", "/v1/streams", `{"name":"vast","n":8589934592}`, nil); code != http.StatusCreated {
		t.Fatalf("create vast: status %d", code)
	}
	if code := do(t, s, "POST", "/v1/streams/vast/edges", `{"updates":[{"u":0,"v":1}]}`, nil); code != http.StatusOK {
		t.Fatalf("append to vast: status %d", code)
	}
	e = wire.Error{}
	if code := do(t, s, "POST", "/v1/queries", `{"stream":"vast","pattern":"triangle","trials":10}`, &e); code != http.StatusBadRequest || e.Code != wire.CodeBadConfig {
		t.Errorf("query over 2^33 vertices: status %d code %q (%q), want 400 %q", code, e.Code, e.Error, wire.CodeBadConfig)
	}
}

func TestQuerySyncAgainstIngestedStream(t *testing.T) {
	s := newTestServer(t, Options{})
	edges := seedStream(t, s, "g", 60, 300)

	var resp wire.QueryResult
	code := do(t, s, "POST", "/v1/queries",
		`{"stream":"g","pattern":"triangle","trials":800,"seed":7}`, &resp)
	if code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if resp.Kind != "count" || resp.Count == nil {
		t.Fatalf("response %+v lacks a count", resp)
	}
	if resp.StreamVersion != int64(edges) {
		t.Errorf("stream_version %d, want %d", resp.StreamVersion, edges)
	}
	if resp.Count.M != int64(edges) {
		t.Errorf("m %d, want %d", resp.Count.M, edges)
	}
	if resp.Count.Passes != 3 {
		t.Errorf("passes %d, want 3", resp.Count.Passes)
	}

	// Same query, same prefix: bit-identical.
	var again wire.QueryResult
	if code := do(t, s, "POST", "/v1/queries",
		`{"stream":"g","pattern":"triangle","trials":800,"seed":7}`, &again); code != http.StatusOK {
		t.Fatalf("repeat query: status %d", code)
	}
	if again.Count.Value != resp.Count.Value || again.StreamVersion != resp.StreamVersion {
		t.Errorf("repeat query diverged: %+v vs %+v", again.Count, resp.Count)
	}

	// Stats reflect the ingestion and the served passes.
	var info wire.StreamInfo
	if code := do(t, s, "GET", "/v1/streams/g/stats", "", &info); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if info.Version != int64(edges) || info.N != 60 || !info.InsertOnly || !info.Appendable {
		t.Errorf("stats %+v", info)
	}
	if info.Passes < 3 {
		t.Errorf("stats passes %d, want >= 3", info.Passes)
	}

	var list wire.StreamsList
	if code := do(t, s, "GET", "/v1/streams", "", &list); code != http.StatusOK {
		t.Fatal("list streams failed")
	}
	found := false
	for _, n := range list.Streams {
		if n == "g" {
			found = true
		}
	}
	if !found {
		t.Errorf("stream list %v misses g", list.Streams)
	}
}

func TestQueryAsyncLifecycle(t *testing.T) {
	s := newTestServer(t, Options{})
	seedStream(t, s, "g", 60, 300)

	var acc wire.AsyncQuery
	code := do(t, s, "POST", "/v1/queries?wait=false",
		`{"stream":"g","kind":"distinguish","pattern":"triangle","threshold":1,"trials":400,"seed":3}`, &acc)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: status %d", code)
	}
	if acc.ID == "" || acc.Status != "pending" {
		t.Fatalf("async accept %+v", acc)
	}
	deadline := time.Now().Add(30 * time.Second)
	var aq wire.AsyncQuery
	for {
		if code := do(t, s, "GET", "/v1/queries/"+acc.ID, "", &aq); code != http.StatusOK {
			t.Fatalf("poll: status %d", code)
		}
		if aq.Status != "pending" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async query never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if aq.Status != "done" || aq.Result == nil || aq.Result.Decision == nil {
		t.Fatalf("async result %+v (error %q)", aq, aq.Error)
	}
	if aq.Result.Decision.Estimate == nil || aq.Result.StreamVersion != 300 {
		t.Fatalf("async decision %+v", aq.Result)
	}
}

func TestCanceledRequestMapsToServiceUnavailable(t *testing.T) {
	s := newTestServer(t, Options{})
	seedStream(t, s, "g", 60, 300)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest("POST", "/v1/queries",
		strings.NewReader(`{"stream":"g","pattern":"triangle","trials":400,"seed":1}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("canceled request: status %d body %s, want 503", w.Code, w.Body.String())
	}
}

func TestDrainRejectsNewWorkAndFinishesAdmitted(t *testing.T) {
	s := newTestServer(t, Options{})
	seedStream(t, s, "g", 60, 300)

	// Admit an async query, then drain immediately: the admitted query must
	// complete even though the server now rejects everything new.
	var acc wire.AsyncQuery
	if code := do(t, s, "POST", "/v1/queries?wait=false",
		`{"stream":"g","pattern":"triangle","trials":400,"seed":5}`, &acc); code != http.StatusAccepted {
		t.Fatalf("async submit: status %d", code)
	}
	s.Drain()

	if code := do(t, s, "GET", "/healthz", "", nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", code)
	}
	for _, tc := range []struct{ method, target, body string }{
		{"POST", "/v1/queries", `{"stream":"g","pattern":"triangle","trials":10}`},
		{"POST", "/v1/streams", `{"name":"late","n":10}`},
		{"POST", "/v1/streams/g/edges", `{"updates":[{"u":0,"v":1}]}`},
	} {
		if code := do(t, s, tc.method, tc.target, tc.body, nil); code != http.StatusServiceUnavailable {
			t.Errorf("%s %s while draining: %d, want 503", tc.method, tc.target, code)
		}
	}

	// Polling still works during drain, and the admitted query completes.
	ctx, cancelWait := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelWait()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	var aq wire.AsyncQuery
	if code := do(t, s, "GET", "/v1/queries/"+acc.ID, "", &aq); code != http.StatusOK {
		t.Fatalf("poll after close: %d", code)
	}
	if aq.Status != "done" {
		t.Errorf("admitted query status %q (error %q), want done", aq.Status, aq.Error)
	}
}

func TestAsyncRegistryBoundedRetention(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fill past the cap with completed entries plus one pending; eviction
	// must drop oldest completed first and never the pending one.
	s.mu.Lock()
	for i := 0; i < maxAsyncQueries+10; i++ {
		id := fmt.Sprintf("q%06d", i)
		status := "done"
		if i == 3 {
			status = "pending"
		}
		s.queries[id] = &asyncQuery{wire.AsyncQuery{ID: id, Status: status}}
		s.queryOrder = append(s.queryOrder, id)
	}
	s.evictCompletedLocked()
	total := len(s.queries)
	evicted := s.evictedQueries
	_, pendingKept := s.queries["q000003"]
	_, oldestEvicted := s.queries["q000000"]
	s.mu.Unlock()
	if total > maxAsyncQueries {
		t.Errorf("registry holds %d entries after eviction, cap %d", total, maxAsyncQueries)
	}
	if !pendingKept {
		t.Error("pending entry was evicted")
	}
	if oldestEvicted {
		t.Error("oldest completed entry survived eviction")
	}
	// Evictions are not silent: the counter must account for every dropped
	// entry, and the stats surfaces must report it.
	if evicted != 10 {
		t.Errorf("evictedQueries = %d, want 10", evicted)
	}
	var list wire.StreamsList
	if code := do(t, s, "GET", "/v1/streams", "", &list); code != http.StatusOK {
		t.Fatal("list streams failed")
	}
	if list.Queries.Evicted != 10 {
		t.Errorf("GET /v1/streams reports %d evictions, want 10", list.Queries.Evicted)
	}
	var h wire.Health
	if code := do(t, s, "GET", "/healthz", "", &h); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if h.Queries.Evicted != 10 {
		t.Errorf("healthz reports %d evictions, want 10", h.Queries.Evicted)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	var body wire.Health
	if code := do(t, s, "GET", "/healthz", "", &body); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if body.Status != "ready" {
		t.Errorf("healthz body %+v", body)
	}
	if body.Watches.Active != 0 || body.Queries.Active != 0 {
		t.Errorf("idle server reports active work: %+v", body)
	}
}
