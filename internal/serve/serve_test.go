package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	hybridmem "repro"
	"repro/internal/store"
	"repro/internal/trace"
)

// newTestServer builds a Quick-scale server and its httptest frontend.
func newTestServer(t *testing.T, opts ...hybridmem.Option) (*hybridmem.Platform, *httptest.Server) {
	t.Helper()
	p := hybridmem.New(append([]hybridmem.Option{hybridmem.WithScale(hybridmem.Quick)}, opts...)...)
	s, err := New(p, Config{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return p, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" {
		t.Errorf("healthz body = %v", out)
	}
}

func TestRunEndpointMatchesDirectRun(t *testing.T) {
	p, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{App: "pmd", Collector: "kgw", Instances: 2})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("run = %d: %s", resp.StatusCode, body)
	}
	var rec store.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}

	spec := hybridmem.RunSpec{AppName: "pmd", Collector: hybridmem.KGW, Instances: 2}
	want, err := p.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Result, want) {
		t.Error("HTTP result is not bit-identical to the direct platform run")
	}
	if rec.Key != p.SpecKey(spec) {
		t.Errorf("Key = %q, want %q", rec.Key, p.SpecKey(spec))
	}
	sum, err := store.Sum(rec.Key, rec.Spec, rec.Result)
	if err != nil || rec.Sum != sum {
		t.Errorf("Sum = %q, want the record's content address %q", rec.Sum, sum)
	}
}

// TestRunCoalescesConcurrentRequests is the service half of the
// acceptance proof: N identical concurrent requests perform exactly
// one platform compute.
func TestRunCoalescesConcurrentRequests(t *testing.T) {
	p, ts := newTestServer(t)
	const n = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []store.Record
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/run", RunRequest{App: "lusearch", Collector: "KG-N"})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("run = %d", resp.StatusCode)
				return
			}
			var rec store.Record
			if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			results = append(results, rec)
			mu.Unlock()
		}()
	}
	wg.Wait()

	st := p.CacheStats()
	if st.Misses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 compute for %d identical requests", st.Misses, n)
	}
	if st.Hits != n-1 {
		t.Errorf("cache hits = %d, want %d", st.Hits, n-1)
	}
	if len(results) != n {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results[1:] {
		if !reflect.DeepEqual(r, results[0]) {
			t.Error("coalesced responses differ")
		}
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		req  RunRequest
		want string
	}{
		{RunRequest{App: "pmd", Collector: "zgc"}, "unknown"},
		{RunRequest{App: "nonsense"}, "unknown"},
		{RunRequest{App: "pmd", Dataset: "huge"}, "unknown"},
		{RunRequest{App: "pmd", Mode: "fpga"}, "unknown"},
		{RunRequest{App: "pmd", Instances: -4}, "instances"},
	} {
		resp := postJSON(t, ts.URL+"/v1/run", tc.req)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v -> %d (%s), want 400", tc.req, resp.StatusCode, body)
		}
		if !bytes.Contains(body, []byte(tc.want)) {
			t.Errorf("%+v error body %q lacks %q", tc.req, body, tc.want)
		}
	}
}

func TestSweepStreamsAlignedGrid(t *testing.T) {
	p, ts := newTestServer(t)
	req := SweepRequest{Apps: []string{"pmd"}, Collectors: []string{"PCM-Only", "KG-W"}, Instances: []int{1, 2}}
	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	specs := hybridmem.NewSweep("pmd").
		Collectors(hybridmem.PCMOnly, hybridmem.KGW).Instances(1, 2).Specs()
	seen := map[int]SweepItem{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var item SweepItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if item.Error != "" {
			t.Fatalf("spec %d failed: %s", item.Index, item.Error)
		}
		seen[item.Index] = item
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(specs) {
		t.Fatalf("streamed %d items, want %d", len(seen), len(specs))
	}
	for i, spec := range specs {
		item, ok := seen[i]
		if !ok {
			t.Fatalf("missing item %d", i)
		}
		want, err := p.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if item.Result == nil || !reflect.DeepEqual(*item.Result, want) {
			t.Errorf("item %d result misaligned with Specs()[%d]", i, i)
		}
	}
}

func TestResultsEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, hybridmem.WithStore(dir))
	for _, req := range []RunRequest{
		{App: "pmd", Collector: "KG-W"},
		{App: "lusearch", Collector: "KG-W"},
		{App: "lusearch", Collector: "PCM-Only"},
	} {
		resp := postJSON(t, ts.URL+"/v1/run", req)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding run = %d", resp.StatusCode)
		}
	}

	get := func(query string) (int, struct {
		Count   int            `json:"count"`
		Records []store.Record `json:"records"`
	}) {
		resp, err := http.Get(ts.URL + "/v1/results" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Count   int            `json:"count"`
			Records []store.Record `json:"records"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}

	if code, out := get(""); code != http.StatusOK || out.Count != 3 {
		t.Errorf("unfiltered = %d/%d records, want 200/3", code, out.Count)
	}
	if code, out := get("?app=lusearch"); code != http.StatusOK || out.Count != 2 {
		t.Errorf("app filter = %d/%d, want 200/2", code, out.Count)
	}
	code, out := get("?app=lusearch&collector=pcmonly")
	if code != http.StatusOK || out.Count != 1 {
		t.Fatalf("combined filter = %d/%d, want 200/1", code, out.Count)
	}
	if got := out.Records[0].Spec; got.AppName != "lusearch" || got.Collector != hybridmem.PCMOnly {
		t.Errorf("filtered record spec = %+v", got)
	}
	if code, _ := get("?collector=zgc"); code != http.StatusBadRequest {
		t.Errorf("bad collector filter = %d, want 400", code)
	}

	// Without a store the listing is explicitly unavailable.
	_, plain := newTestServer(t)
	resp, err := http.Get(plain.URL + "/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("storeless results = %d, want 501", resp.StatusCode)
	}
}

func TestMetrics(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, hybridmem.WithStore(dir))
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{App: "pmd"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	text := string(body)
	for _, metric := range []string{
		`hybridserved_cache_hits_total{node="local"}`,
		`hybridserved_cache_misses_total{node="local"} 1`,
		`hybridserved_store_misses_total{node="local"} 1`,
		`hybridserved_store_records{node="local"} 1`,
		`hybridserved_inflight_runs{node="local"} 0`,
		`hybridserved_requests_total{node="local"}`,
		`hybridserved_rejected_total{node="local"} 0`,
		`hybridserved_queue_depth{node="local"} 0`,
		`fabric_forwarded_total{node="local"} 0`,
		`fabric_coalesced_total{node="local"} 0`,
		`fabric_degraded_total{node="local"} 0`,
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics missing %q:\n%s", metric, text)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run = %d, want 405", resp.StatusCode)
	}
}

// TestStoreOpenFailsAtStartup checks New fails fast on a bad store
// directory instead of on the first request.
func TestStoreOpenFailsAtStartup(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := hybridmem.New(hybridmem.WithScale(hybridmem.Quick), hybridmem.WithStore(bad))
	if _, err := New(p, Config{}); err == nil {
		t.Fatal("New must fail when the store cannot open")
	}
}

func TestPoliciesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, hybridmem.WithPolicy(hybridmem.WriteThreshold))
	resp, err := http.Get(ts.URL + "/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policies = %d", resp.StatusCode)
	}
	var out struct {
		Count    int `json:"count"`
		Policies []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
			Default     bool   `json:"default"`
		} `json:"policies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 4 || len(out.Policies) != 4 {
		t.Fatalf("policies body = %+v, want 4 entries", out)
	}
	for _, pi := range out.Policies {
		if _, err := hybridmem.ParsePolicy(pi.Name); err != nil {
			t.Errorf("served name %q does not parse back: %v", pi.Name, err)
		}
		if pi.Description == "" {
			t.Errorf("policy %q has no description", pi.Name)
		}
		if pi.Default != (pi.Name == hybridmem.WriteThreshold.String()) {
			t.Errorf("policy %q default flag = %v", pi.Name, pi.Default)
		}
	}
}

func TestRunEndpointPolicyOverride(t *testing.T) {
	p, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{App: "PR", Collector: "KG-N", Policy: "write-threshold"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("run = %d: %s", resp.StatusCode, body)
	}
	var rec store.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Result.PagesMigrated == 0 {
		t.Error("write-threshold request migrated no pages")
	}
	spec := hybridmem.RunSpec{AppName: "PR", Collector: hybridmem.KGN}
	want, err := p.With(hybridmem.WithPolicy(hybridmem.WriteThreshold)).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Result, want) {
		t.Error("HTTP policy run is not bit-identical to the direct platform run")
	}
	if !strings.Contains(rec.Key, "policy=write-threshold") {
		t.Errorf("record key %q does not carry the policy", rec.Key)
	}

	bad := postJSON(t, ts.URL+"/v1/run", RunRequest{App: "PR", Policy: "lru"})
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown policy = %d, want 400", bad.StatusCode)
	}
}

func TestResultsPaging(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results.d")
	_, ts := newTestServer(t, hybridmem.WithStore(dir))

	// Three distinct runs to page over.
	for _, gc := range []string{"PCM-Only", "KG-N", "KG-W"} {
		resp := postJSON(t, ts.URL+"/v1/run", RunRequest{App: "lusearch", Collector: gc})
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("run %s = %d: %s", gc, resp.StatusCode, body)
		}
		resp.Body.Close()
	}

	type listing struct {
		Count   int            `json:"count"`
		Total   int            `json:"total"`
		Offset  int            `json:"offset"`
		Records []store.Record `json:"records"`
	}
	get := func(query string) listing {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/results" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("results%s = %d: %s", query, resp.StatusCode, body)
		}
		var out listing
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	all := get("")
	if all.Total != 3 || all.Count != 3 || len(all.Records) != 3 {
		t.Fatalf("unpaged listing = %d/%d records", all.Count, all.Total)
	}

	// Pages partition the listing in order, and total still counts
	// every match.
	var paged []store.Record
	for off := 0; off < all.Total; off += 2 {
		page := get(fmt.Sprintf("?limit=2&offset=%d", off))
		if page.Total != 3 {
			t.Errorf("paged total = %d, want 3", page.Total)
		}
		if page.Offset != off {
			t.Errorf("offset echo = %d, want %d", page.Offset, off)
		}
		if page.Count != len(page.Records) {
			t.Errorf("count %d != %d records", page.Count, len(page.Records))
		}
		paged = append(paged, page.Records...)
	}
	if !reflect.DeepEqual(paged, all.Records) {
		t.Error("pages do not reassemble the full listing in order")
	}

	// Past-the-end offsets are empty, not errors.
	if out := get("?offset=99"); out.Count != 0 || out.Total != 3 {
		t.Errorf("past-the-end page = %d/%d", out.Count, out.Total)
	}
	// An empty page is an empty list, as on /v1/runs, never null.
	if out := get("?offset=99"); out.Records == nil {
		t.Error(`past-the-end page encodes "records":null, want []`)
	}
	// limit=0 returns no records but still reports the total.
	if out := get("?limit=0"); out.Count != 0 || out.Total != 3 {
		t.Errorf("limit=0 page = %d/%d", out.Count, out.Total)
	}
	// Paging composes with spec filters.
	if out := get("?collector=KG-N&limit=5"); out.Total != 1 || out.Count != 1 {
		t.Errorf("filtered page = %d/%d, want 1/1", out.Count, out.Total)
	}

	// Malformed paging parameters are client errors.
	for _, q := range []string{"?limit=-1", "?limit=x", "?offset=-3", "?offset=y"} {
		resp, err := http.Get(ts.URL + "/v1/results" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("results%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestSweepPoliciesDimension(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Apps:       []string{"lusearch"},
		Collectors: []string{"KG-N"},
		Policies:   []string{"static", "first-touch"},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep = %d: %s", resp.StatusCode, body)
	}
	seen := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	items := 0
	for sc.Scan() {
		var item SweepItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatal(err)
		}
		if item.Error != "" {
			t.Fatalf("item %d failed: %s", item.Index, item.Error)
		}
		seen[item.Policy]++
		items++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if items != 2 {
		t.Fatalf("sweep streamed %d items, want 2 (one per policy)", items)
	}
	if seen["static"] != 1 || seen["first-touch"] != 1 {
		t.Errorf("policy passes = %v", seen)
	}

	bad := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Apps: []string{"lusearch"}, Policies: []string{"nope"}})
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown sweep policy = %d, want 400", bad.StatusCode)
	}
}

// TestSweepDisconnectStopsGrid: a client that disconnects mid-sweep
// stops the grid at the next cell instead of opening a span, a failed
// run record and a dispatch for every remaining one, and the sweep's
// own record fails with the client's cancellation. With MaxInFlight=1
// the cells run one at a time, so the context is cancelled right after
// the first streamed item, before any other cell starts.
func TestSweepDisconnectStopsGrid(t *testing.T) {
	p := hybridmem.New(hybridmem.WithScale(hybridmem.Quick))
	s, err := New(p, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	collectors := []string{"PCM-Only", "KG-N", "KG-W"}
	body, err := json.Marshal(SweepRequest{Apps: []string{"lusearch"}, Collectors: collectors})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelOnWrite{ResponseRecorder: httptest.NewRecorder(), after: 1, cancel: cancel}
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)).WithContext(ctx))

	sweeps := s.runs.List(func(ri RunInfo) bool { return ri.Kind == "sweep" })
	if len(sweeps) != 1 {
		t.Fatalf("flight recorder has %d sweep records, want 1", len(sweeps))
	}
	if sweeps[0].State != RunFailed {
		t.Errorf("disconnected sweep state = %q, want %q", sweeps[0].State, RunFailed)
	}
	if !strings.Contains(sweeps[0].Error, context.Canceled.Error()) {
		t.Errorf("disconnected sweep error = %q, want the client's cancellation", sweeps[0].Error)
	}
	cells := s.runs.List(func(ri RunInfo) bool { return ri.Kind == "run" })
	if len(cells) >= len(collectors) {
		t.Errorf("%d cell records begun for a %d-cell grid cancelled after its first item",
			len(cells), len(collectors))
	}
}

// TestTraceEndpoint exercises GET /v1/trace: the streamed ndjson must
// be a valid versioned trace whose header names the requested run, and
// replaying it with the requested policy must reproduce the recorded
// action stream bit-identically — the live-vs-replay differential over
// HTTP.
func TestTraceEndpoint(t *testing.T) {
	p, ts := newTestServer(t, hybridmem.WithSeed(11))
	resp, err := http.Get(ts.URL + "/v1/trace?app=lusearch&collector=KG-N&policy=write-threshold")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	hdr, err := trace.NewReader(bytes.NewReader(data)).Header()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.App != "lusearch" || hdr.Collector != "KG-N" || hdr.Policy != "write-threshold" || hdr.Seed != 11 {
		t.Errorf("trace header = %+v", hdr)
	}
	wantKey := p.With(hybridmem.WithPolicy(hybridmem.WriteThreshold)).
		SpecKey(hybridmem.RunSpec{AppName: "lusearch", Collector: hybridmem.KGN})
	if hdr.Key != wantKey {
		t.Errorf("trace key = %q, want %q", hdr.Key, wantKey)
	}

	st, err := hybridmem.ReplayTrace(bytes.NewReader(data), hybridmem.WriteThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quanta == 0 {
		t.Error("streamed trace has no quanta")
	}
	if !st.MatchesRecorded {
		t.Errorf("streamed trace replay diverged at quantum %d", st.FirstMismatchQuantum)
	}

	// The same run again: tracing bypasses the cache, so the second
	// stream must be byte-identical, not empty.
	resp2, err := http.Get(ts.URL + "/v1/trace?app=lusearch&collector=KG-N&policy=write-threshold")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	data2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("second trace stream differs from the first")
	}
}

// TestTraceEndpointRejectsBadQuery pins validation-before-streaming.
func TestTraceEndpointRejectsBadQuery(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{
		"?app=nosuchapp",
		"?app=lusearch&collector=nosuchgc",
		"?app=lusearch&policy=lru",
		"?app=lusearch&instances=nope",
		"?app=lusearch&native=maybe",
	} {
		resp, err := http.Get(ts.URL + "/v1/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestAutotuneEndpoint drives POST /v1/autotune end to end: one traced
// run recorded server-side, the grid priced offline, and the report
// returned with a non-empty Pareto frontier and a flagged
// recommendation.
func TestAutotuneEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/autotune", AutotuneRequest{
		Run: RunRequest{App: "PR", Collector: "KG-N"},
		Grid: AutotuneGrid{
			Policy:          "write-threshold",
			HotWriteLines:   []uint64{2100, 3000},
			DRAMBudgetPages: []uint64{16384, 32768},
		},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("autotune = %d: %s", resp.StatusCode, body)
	}
	var rep hybridmem.AutotuneReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Header.App != "PR" || rep.Header.Policy != "write-threshold" {
		t.Errorf("report header = %+v", rep.Header)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(rep.Points))
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	if !rep.Recommended.Recommended || !rep.Recommended.Pareto {
		t.Errorf("recommendation not flagged: %+v", rep.Recommended)
	}
	for _, pt := range rep.Points {
		if pt.Quanta == 0 {
			t.Errorf("point %+v priced zero quanta", pt)
		}
	}
}

// TestAutotuneEndpointRejectsBadRequests pins the endpoint's 400s:
// unknown names, invalid grids, and native runs (no policy quanta).
func TestAutotuneEndpointRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		req  AutotuneRequest
	}{
		{"unknown app", AutotuneRequest{Run: RunRequest{App: "nope"}}},
		{"unknown grid policy", AutotuneRequest{
			Run:  RunRequest{App: "PR", Collector: "KG-N"},
			Grid: AutotuneGrid{Policy: "no-such-policy"}}},
		{"invalid grid value", AutotuneRequest{
			Run:  RunRequest{App: "PR", Collector: "KG-N"},
			Grid: AutotuneGrid{HotWriteLines: []uint64{0}}}},
		{"native run", AutotuneRequest{
			Run: RunRequest{App: "PR", Native: true}}},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/autotune", tc.req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestAutotuneEndpointInfersWearLevel: a grid listing only wearFactors
// means wear-level — defaulting it to write-threshold would price
// every point identically and recommend noise.
func TestAutotuneEndpointInfersWearLevel(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/autotune", AutotuneRequest{
		Run:  RunRequest{App: "PR", Collector: "KG-N"},
		Grid: AutotuneGrid{WearFactors: []float64{1.5, 3}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("autotune = %d: %s", resp.StatusCode, body)
	}
	var rep hybridmem.AutotuneReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Header.Policy != "wear-level" {
		t.Errorf("recorded policy = %q, want wear-level (inferred from the grid)", rep.Header.Policy)
	}
	for _, pt := range rep.Points {
		if pt.Policy != "wear-level" {
			t.Errorf("point policy = %q, want wear-level", pt.Policy)
		}
	}
}
