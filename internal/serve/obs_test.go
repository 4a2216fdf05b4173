package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	hybridmem "repro"
	"repro/internal/obs"
)

// expoFamily is one parsed metric family from a /metrics dump.
type expoFamily struct {
	typ     string
	help    bool
	samples []expoSample
}

type expoSample struct {
	labels string // raw {..} block, "" when unlabelled
	value  float64
}

// parseExposition parses a Prometheus 0.0.4 text dump, failing the
// test when a sample appears before its family's HELP and TYPE lines
// (the ordering the format requires).
func parseExposition(t *testing.T, body string) map[string]*expoFamily {
	t.Helper()
	fams := map[string]*expoFamily{}
	helped := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if fams[name] != nil {
				t.Errorf("duplicate TYPE line for %s", name)
			}
			fams[name] = &expoFamily{typ: typ, help: helped[name]}
			continue
		}
		name := line
		labels := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("malformed sample line %q", line)
			}
			labels = line[i : j+1]
			line = name + line[j+1:]
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", sc.Text())
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", sc.Text(), err)
		}
		family := name
		if fams[family] == nil {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && fams[base] != nil {
					family = base
					break
				}
			}
		}
		fam := fams[family]
		if fam == nil {
			t.Fatalf("sample %q precedes its TYPE line", sc.Text())
			continue
		}
		if !fam.help {
			t.Errorf("family %s has TYPE but no HELP", family)
		}
		fam.samples = append(fam.samples, expoSample{labels: labels, value: v})
	}
	return fams
}

// TestMetricsExposition checks the /metrics page as a scraper would:
// correct content type, HELP/TYPE before every series, the latency
// histograms present with node labels and monotone cumulative buckets,
// and build/runtime identity series.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, hybridmem.WithStore(t.TempDir()))
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{App: "pmd"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	fams := parseExposition(t, sb.String())

	for _, name := range []string{
		"hybridserved_cache_misses_total", "hybridserved_requests_total",
		"hybridserved_store_records", "fabric_forwarded_total",
		"hybridserved_run_seconds", "hybridserved_sweep_seconds",
		"hybridserved_admission_wait_seconds",
		"hybridmem_emulate_seconds", "hybridmem_store_lookup_seconds",
		"hybridserved_build_info", "go_goroutines", "go_heap_alloc_bytes",
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing from exposition", name)
		}
	}
	for name, fam := range fams {
		if len(fam.samples) == 0 {
			t.Errorf("family %s has no samples", name)
		}
	}

	// Every hybridserved/hybridmem series carries the node label.
	for name, fam := range fams {
		if !strings.HasPrefix(name, "hybridserved_") && !strings.HasPrefix(name, "hybridmem_") {
			continue
		}
		for _, s := range fam.samples {
			if !strings.Contains(s.labels, `node="local"`) {
				t.Errorf("%s sample %q lacks node label", name, s.labels)
			}
		}
	}

	bi := fams["hybridserved_build_info"]
	if bi == nil || bi.typ != "gauge" {
		t.Fatalf("build_info family = %+v", bi)
	}
	if s := bi.samples[0]; s.value != 1 || !strings.Contains(s.labels, `goversion="go`) {
		t.Errorf("build_info sample = %+v", s)
	}

	// The run landed in the latency histogram: cumulative buckets are
	// monotone and the +Inf bucket equals the count.
	run := fams["hybridserved_run_seconds"]
	if run == nil || run.typ != "histogram" {
		t.Fatalf("run_seconds family = %+v", run)
	}
	var prev float64
	var inf, count float64
	for _, s := range run.samples {
		switch {
		case strings.Contains(s.labels, `le="`):
			if s.value < prev {
				t.Errorf("bucket %q = %g below previous %g", s.labels, s.value, prev)
			}
			prev = s.value
			if strings.Contains(s.labels, `le="+Inf"`) {
				inf = s.value
			}
		case true:
			// _sum then _count follow the buckets; count is last.
			count = s.value
		}
	}
	if inf != count || count != 1 {
		t.Errorf("run_seconds +Inf bucket = %g, count = %g, want both 1", inf, count)
	}
}

// TestSpansEndpoint checks GET /v1/spans: a run leaves a span tree in
// the ring (run and emulate sharing one trace), limit caps the stream,
// and a bad limit is rejected.
func TestSpansEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{App: "pmd"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d", resp.StatusCode)
	}

	spans := getSpans(t, ts.URL)
	var run, emulate *obs.SpanRecord
	for i, sp := range spans {
		switch sp.Name {
		case "run":
			run = &spans[i]
		case "emulate":
			emulate = &spans[i]
		}
	}
	if run == nil || emulate == nil {
		t.Fatalf("spans missing run/emulate: %+v", spans)
	}
	if run.Trace == "" || emulate.Trace != run.Trace {
		t.Errorf("emulate trace %q does not join run trace %q", emulate.Trace, run.Trace)
	}
	if run.Node != "local" {
		t.Errorf("run span node = %q", run.Node)
	}

	req, err := http.Get(ts.URL + "/v1/spans?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer req.Body.Close()
	var n int
	sc := bufio.NewScanner(req.Body)
	for sc.Scan() {
		n++
	}
	if n != 1 {
		t.Errorf("limit=1 returned %d spans", n)
	}

	bad, err := http.Get(ts.URL + "/v1/spans?limit=x")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("limit=x -> %d, want 400", bad.StatusCode)
	}
}

// TestTraceJoinsCallerTrace: GET /v1/trace honours a client's
// traceparent like /v1/run does — its "trace" lifecycle span continues
// the caller's trace, parented to the caller's span.
func TestTraceJoinsCallerTrace(t *testing.T) {
	_, ts := newTestServer(t)
	const traceID, parentID = "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	req, err := http.NewRequest("GET", ts.URL+"/v1/trace?app=lusearch&collector=KG-N&policy=write-threshold", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+traceID+"-"+parentID+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d", resp.StatusCode)
	}

	var span *obs.SpanRecord
	for _, sp := range getSpans(t, ts.URL) {
		if sp.Name == "trace" {
			span = &sp
		}
	}
	if span == nil {
		t.Fatal("no trace span recorded")
	}
	if span.Trace != traceID || span.Parent != parentID {
		t.Errorf("trace span in trace %s under %s, want trace %s under %s",
			span.Trace, span.Parent, traceID, parentID)
	}
}

// getSpans drains GET /v1/spans into records.
func getSpans(t *testing.T, url string) []obs.SpanRecord {
	t.Helper()
	resp, err := http.Get(url + "/v1/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spans = %d", resp.StatusCode)
	}
	var out []obs.SpanRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		out = append(out, rec)
	}
	return out
}

// TestDistributedTraceByteIdenticalResult is the acceptance test for
// the telemetry subsystem: a run forwarded across a 3-node fabric
// yields one trace id whose tree spans the entry node's dispatch, the
// owner node's execution, and the engine's per-quantum work — and the
// traced run's Result is byte-identical to an uninstrumented run of
// the same spec.
func TestDistributedTraceByteIdenticalResult(t *testing.T) {
	nodes := startCluster(t, 3, nil)

	wire := RunRequest{App: "PR", Collector: "KG-N", Policy: "write-threshold"}
	ref := hybridmem.New(hybridmem.WithScale(hybridmem.Quick), hybridmem.WithPolicy(hybridmem.WriteThreshold))
	kind, err := hybridmem.ParseCollector("KG-N")
	if err != nil {
		t.Fatal(err)
	}
	spec := hybridmem.NormalizeSpec(hybridmem.RunSpec{AppName: "PR", Collector: kind})
	key := ref.SpecKey(spec)

	ownerURL := nodes[0].srv.fab.Owner(key)
	var entry, owner *clusterNode
	for _, n := range nodes {
		if n.url == ownerURL {
			owner = n
		} else if entry == nil {
			entry = n
		}
	}
	if entry == nil || owner == nil {
		t.Fatalf("ring did not place owner among the nodes: %q", ownerURL)
	}

	resp := postJSON(t, entry.url+"/v1/run", wire)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	var rec struct {
		Key    string           `json:"key"`
		Result hybridmem.Result `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Key != key {
		t.Fatalf("key = %s, want %s (telemetry must not change spec identity)", rec.Key, key)
	}
	if got := metricValue(t, entry.url, "fabric_forwarded_total"); got != 1 {
		t.Fatalf("entry forwarded %d runs, want 1", got)
	}

	// The instrumented, forwarded run's Result encodes byte-for-byte
	// identically to a plain local run with no telemetry attached.
	want, err := ref.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := hybridmem.EncodeResult(want)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := hybridmem.EncodeResult(rec.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(wantBytes) {
		t.Errorf("instrumented result differs from uninstrumented:\n got %s\nwant %s", gotBytes, wantBytes)
	}

	// One distributed trace: the entry's forward span continues into
	// the owner's run span via the traceparent header, and the owner's
	// quantum work hangs off the same trace.
	entrySpans := getSpans(t, entry.url)
	var forward *obs.SpanRecord
	for i, sp := range entrySpans {
		if sp.Name == "fabric.forward" {
			forward = &entrySpans[i]
		}
	}
	if forward == nil {
		t.Fatalf("entry node recorded no fabric.forward span: %+v", entrySpans)
	}
	if forward.Attrs["owner"] != ownerURL {
		t.Errorf("forward owner attr = %q, want %q", forward.Attrs["owner"], ownerURL)
	}
	trace := forward.Trace
	var entryRun *obs.SpanRecord
	for i, sp := range entrySpans {
		if sp.Name == "run" && sp.Trace == trace {
			entryRun = &entrySpans[i]
		}
	}
	if entryRun == nil {
		t.Fatalf("entry run span missing from trace %s", trace)
	}
	if forward.Parent != entryRun.Span {
		t.Errorf("forward parent = %s, want entry run span %s", forward.Parent, entryRun.Span)
	}

	ownerSpans := getSpans(t, owner.url)
	var ownerRun, emulate *obs.SpanRecord
	quanta := 0
	for i, sp := range ownerSpans {
		if sp.Trace != trace {
			continue
		}
		switch sp.Name {
		case "run":
			ownerRun = &ownerSpans[i]
		case "emulate":
			emulate = &ownerSpans[i]
		case "policy.quantum":
			quanta++
		}
	}
	if ownerRun == nil {
		t.Fatalf("owner recorded no run span in trace %s: %+v", trace, ownerSpans)
	}
	if ownerRun.Parent != forward.Span {
		t.Errorf("owner run parent = %s, want forward span %s (traceparent not propagated)", ownerRun.Parent, forward.Span)
	}
	if ownerRun.Node != ownerURL {
		t.Errorf("owner run node = %q, want %q", ownerRun.Node, ownerURL)
	}
	if emulate == nil {
		t.Errorf("owner recorded no emulate span in trace %s", trace)
	}
	if quanta < 1 {
		t.Errorf("trace %s holds no policy.quantum spans", trace)
	}
}
