package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hybridmem "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/perfbench/stats"
)

// classes are serve-warm's request classes.
var classes = []string{"run", "estimate", "sweep", "trace"}

// perPass is how many requests of each class one pass sends. Every
// class gets 2000 samples per pass, so its per-pass p99 has 20
// samples beyond it.
var perPass = map[string]int{"run": 2000, "estimate": 2000, "sweep": 2000, "trace": 2000}

// serveGOGC is serve-warm's garbage-collector target (see runServeWarm).
const serveGOGC = 400

// serveSetups is how many times serve-warm sets up; setup_s is the
// median. One set-up emulates 8 runs and takes about 4 s.
const serveSetups = 3

// serveClients is the number of closed-loop clients: hybridserved's
// callers wait for each reply, and the host has two cores.
const serveClients = 2

var (
	// serveGrid is computed into the store at set-up, under Static.
	serveGridApps       = []string{"pmd", "bloat", "fop"}
	serveGridCollectors = []hybridmem.Collector{hybridmem.PCMOnly, hybridmem.KGW}
	// serveTraced are the neighborhoods warmed into the trace library:
	// KG-W runs under WriteThreshold with its default knobs.
	serveTraced = []string{"pmd", "bloat"}
	// hotWriteVariants are the server's WriteThreshold HotWriteLines
	// knob values; the seed picks one, and estimate requests that name
	// no policy are priced under it.
	hotWriteVariants = []uint64{128, 192, 384, 512}
)

// tracedRun is one set-up recording filed in the library.
type tracedRun struct {
	key   string
	res   hybridmem.Result
	trace []byte
}

// gridRun is one set-up grid run.
type gridRun struct {
	spec hybridmem.RunSpec
	res  hybridmem.Result
}

// serveEnv is one set-up: a store and trace library filled by
// emulation, and a server over a new platform on them.
type serveEnv struct {
	p      *hybridmem.Platform // the server's platform
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	url    string
	reg    *obs.Registry
	lib    *hybridmem.TraceLibrary
	grid   map[string]gridRun     // spec key -> set-up run
	traced map[string]tracedRun   // app -> recording
	tr     atomic.Pointer[tracer] // spans of the handler, when traced
}

// close stops the server and waits for it.
func (e *serveEnv) close() error {
	err := e.hs.Close()
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.srv.Close()
	if st, serr := e.p.Store(); serr == nil && st != nil {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// setUp computes the grid into a fresh store, warms a fresh trace
// library with the WriteThreshold neighborhoods, and starts a server
// over a new platform on both, so store replay and library indexing
// count as set-up too. The memory tier is then filled from the store.
func setUpServe(b *bench, hot uint64) (*serveEnv, error) {
	storeDir, libDir := b.dir("store"), b.dir("library")
	e := &serveEnv{grid: map[string]gridRun{}, traced: map[string]tracedRun{}}
	p0 := hybridmem.New(baseOptions(hybridmem.WithStore(storeDir))...)
	var specs []hybridmem.RunSpec
	for _, app := range serveGridApps {
		for _, c := range serveGridCollectors {
			specs = append(specs, hybridmem.RunSpec{AppName: app, Collector: c})
		}
	}
	for _, spec := range specs {
		var res hybridmem.Result
		err := b.tr.span("hybridmem.run", 0, 0, func() (err error) {
			res, err = p0.Run(b.ctx, spec)
			return err
		})
		if err != nil {
			return nil, err
		}
		e.grid[p0.SpecKey(spec)] = gridRun{spec, res}
		b.noteResult(p0.SpecKey(spec), res)
	}
	if st, err := p0.Store(); err != nil {
		return nil, err
	} else if err := st.Close(); err != nil {
		return nil, err
	}
	if err := timeStore(b, storeDir, e.grid); err != nil {
		return nil, err
	}
	lib, err := hybridmem.OpenTraceLibrary(libDir)
	if err != nil {
		return nil, err
	}
	for _, app := range serveTraced {
		spec := hybridmem.RunSpec{AppName: app, Collector: hybridmem.KGW}
		var buf bytes.Buffer
		tp := hybridmem.New(baseOptions(hybridmem.WithPolicy(hybridmem.WriteThreshold), hybridmem.WithTrace(&buf))...)
		var res hybridmem.Result
		err := b.tr.span("hybridmem.run", 0, 0, func() (err error) {
			res, err = tp.Run(b.ctx, spec)
			return err
		})
		if err == nil {
			err = b.tr.span("library.put", 0, 0, func() error {
				return tp.WarmTraceLibrary(lib, spec, res, buf.Bytes())
			})
		}
		if err != nil {
			return nil, err
		}
		e.traced[app] = tracedRun{tp.SpecKey(spec), res, buf.Bytes()}
		b.noteResult(tp.SpecKey(spec), res)
	}

	e.p = hybridmem.New(baseOptions(hybridmem.WithStore(storeDir),
		hybridmem.WithPolicyConfig(hybridmem.PolicyConfig{Kind: hybridmem.WriteThreshold, HotWriteLines: hot}))...)
	static := e.p.With(hybridmem.WithPolicy(hybridmem.Static))
	for _, spec := range specs {
		if _, err := static.Run(b.ctx, spec); err != nil {
			return nil, err
		}
	}
	if e.lib, err = hybridmem.OpenTraceLibrary(libDir); err != nil {
		return nil, err
	}
	e.reg = obs.NewRegistry()
	e.srv, err = serve.New(e.p, serve.Config{
		TraceLibrary: e.lib, Registry: e.reg,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.handler(), ReadHeaderTimeout: 10 * time.Second}
	e.done = make(chan error, 1)
	go func() { e.done <- e.hs.Serve(ln) }()
	return e, nil
}

// timeStore opens a just-written store and reads every key back in
// batches (store.open / store.get spans when traced), checking each
// record against the Result that was written.
func timeStore(b *bench, dir string, want map[string]gridRun) error {
	if b.tr == nil {
		return nil
	}
	var st *store.Store
	err := b.tr.span("store.open", 0, 0, func() (err error) {
		st, err = store.Open(dir)
		return err
	})
	if err != nil {
		return err
	}
	for key, g := range want {
		var (
			rec store.Record
			ok  bool
		)
		b.tr.span("store.get", 0, 0, func() error {
			for range getBatch {
				rec, ok = st.Get(key)
			}
			return nil
		})
		if !ok || !sameResult(rec.Result, g.res) {
			b.broken = true
			fmt.Fprintf(os.Stderr, "perfbench: store does not hold %s as written\n", key)
		}
	}
	return st.Close()
}

// Headers carrying span identity from client to handler.
const (
	hdrOp    = "X-Bench-Op"
	hdrSpan  = "X-Bench-Span"
	hdrClass = "X-Bench-Class"
)

// handler wraps the server's ServeHTTP in a serve.<class> span.
func (e *serveEnv) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := e.tr.Load()
		if tr == nil {
			e.srv.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.Atoi(r.Header.Get(hdrOp))
		parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
		id := tr.start("serve."+r.Header.Get(hdrClass), parent, op)
		e.srv.ServeHTTP(w, r)
		tr.finish(id)
	})
}

// request is one distinct request of the stream, with the response
// its first (fully verified) answer established.
type request struct {
	class, method, path string
	body                []byte
	header, source      string // expected source header and value
	// verify fully checks a response body against the set-up Results.
	verify func(body []byte) error
	want   []byte // canonical body, set by the warm-up round
}

// requests builds serve-warm's distinct requests.
func (e *serveEnv) requests() []*request {
	var rs []*request
	jsonBody := func(v any) []byte {
		data, _ := json.Marshal(v) // plain maps and slices always marshal
		return data
	}
	keys := make([]string, 0, len(e.grid))
	for key := range e.grid {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		g := e.grid[key]
		rs = append(rs, &request{
			class: "run", method: "POST", path: "/v1/run?answer=exact",
			body: jsonBody(map[string]string{"app": g.spec.AppName, "collector": g.spec.Collector.String(),
				"policy": "static"}),
			header: "X-Answer-Source", source: "exact",
			verify: func(body []byte) error { return checkRecord(body, key, g.res) },
		})
	}
	// The estimate and trace classes use one neighborhood, so each
	// class's latencies form one cluster. An even mix of pmd (0.55 ms)
	// and bloat (0.33 ms) estimates put the p50 in the gap between the
	// two, where it moved by 15% between runs.
	app, rec := serveTraced[0], e.traced[serveTraced[0]]
	// No policy: the server's own WriteThreshold knob variant.
	rs = append(rs, &request{
		class: "estimate", method: "POST", path: "/v1/run?answer=estimate",
		body:   jsonBody(map[string]string{"app": app, "collector": "KG-W"}),
		header: "X-Answer-Source", source: "estimate",
		verify: func(body []byte) error { return checkEstimate(body, rec, false) },
	})
	// The recorded policy and knobs: the replay must match exactly.
	rs = append(rs, &request{
		class: "estimate", method: "POST", path: "/v1/run?answer=estimate",
		body:   jsonBody(map[string]string{"app": app, "collector": "KG-W", "policy": "write-threshold"}),
		header: "X-Answer-Source", source: "estimate",
		verify: func(body []byte) error { return checkEstimate(body, rec, true) },
	})
	rs = append(rs, &request{
		class: "trace", method: "GET",
		path:   "/v1/trace?source=library&collector=KG-W&policy=write-threshold&app=" + app,
		header: "X-Trace-Source", source: "library",
		verify: func(body []byte) error {
			if !bytes.Equal(body, rec.trace) {
				return errors.New("streamed trace differs from the recorded one")
			}
			return nil
		},
	})
	rs = append(rs, &request{
		class: "sweep", method: "POST", path: "/v1/sweep?answer=auto",
		body: jsonBody(map[string][]string{"apps": serveTraced, "collectors": {"KG-W"},
			"policies": {"static", "write-threshold"}}),
		header: "X-Answer-Source", source: "auto",
		verify: e.checkSweep,
	})
	return rs
}

// checkRecord checks a /v1/run answer against the set-up Result.
func checkRecord(body []byte, key string, want hybridmem.Result) error {
	var rec store.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return err
	}
	if rec.Key != key || !sameResult(rec.Result, want) {
		return fmt.Errorf("answer for %s differs from the set-up Result", key)
	}
	return nil
}

// checkEstimate checks an estimated answer: tagged as an estimate of
// the recorded run and, under the recorded policy, an exact replay.
func checkEstimate(body []byte, rec tracedRun, exact bool) error {
	var r store.Record
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	est := r.Result.Estimate
	switch {
	case !r.Result.Estimated || est == nil:
		return errors.New("answer is not tagged as an estimate")
	case est.SourceKey != rec.key:
		return fmt.Errorf("estimate priced from %q, want %q", est.SourceKey, rec.key)
	case exact && (!est.MatchesRecorded || r.Result.PagesMigrated != rec.res.PagesMigrated):
		return errors.New("estimate under the recorded policy does not reproduce the recorded run")
	}
	return nil
}

// checkSweep checks a mixed sweep: Static cells answered exactly from
// the set-up grid, WriteThreshold cells estimated from the library.
func (e *serveEnv) checkSweep(body []byte) error {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 2*len(serveTraced) {
		return fmt.Errorf("sweep streamed %d items, want %d", len(lines), 2*len(serveTraced))
	}
	for _, line := range lines {
		var it serve.SweepItem
		if err := json.Unmarshal(line, &it); err != nil {
			return err
		}
		switch {
		case it.Error != "" || it.Result == nil:
			return fmt.Errorf("sweep item %d failed: %s", it.Index, it.Error)
		case it.Policy == hybridmem.Static.String():
			if g, ok := e.grid[it.Key]; !ok || !sameResult(*it.Result, g.res) {
				return fmt.Errorf("sweep item %d differs from the set-up Result", it.Index)
			}
		case !it.Result.Estimated:
			return fmt.Errorf("sweep item %d (%s) was not estimated", it.Index, it.Policy)
		}
	}
	return nil
}

// canonical renders a body in a form equal for equal answers: sweep
// items stream in completion order, so their lines are sorted.
func canonical(r *request, body []byte) []byte {
	if r.class != "sweep" {
		return body
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	slices.SortFunc(lines, bytes.Compare)
	return bytes.Join(lines, []byte("\n"))
}

// sample is one completed request.
type sample struct {
	class   string
	latency float64 // seconds
	err     error
}

// client is the load generator: closed-loop clients pulling the next
// request of a fixed stream. The latency clock covers sending the
// request and reading the whole response; checks run after it stops.
type client struct {
	c   *http.Client
	url string
}

func (c *client) do(b *bench, tr *tracer, r *request, op int) sample {
	req, err := http.NewRequestWithContext(b.ctx, r.method, c.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return sample{class: r.class, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	id := 0
	if tr != nil {
		id = tr.start("client."+r.class, 0, op)
		req.Header.Set(hdrOp, strconv.Itoa(op))
		req.Header.Set(hdrSpan, strconv.Itoa(id))
		req.Header.Set(hdrClass, r.class)
	}
	start := time.Now()
	resp, err := c.c.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(start).Seconds()
	tr.finish(id)
	s := sample{class: r.class, latency: lat, err: err}
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("%s %s: status %d: %s", r.method, r.path, resp.StatusCode, bytes.TrimSpace(body))
	case resp.Header.Get(r.header) != r.source:
		s.err = fmt.Errorf("%s %s: %s %q, want %q", r.method, r.path, r.header, resp.Header.Get(r.header), r.source)
	case r.want == nil:
		if s.err = r.verify(body); s.err == nil {
			r.want = canonical(r, body)
		}
	case !bytes.Equal(canonical(r, body), r.want):
		s.err = fmt.Errorf("%s %s: answer differs from the verified one", r.method, r.path)
	}
	return s
}

// runServeWarm is serve-warm: two closed-loop clients send a fixed,
// seed-shuffled stream of run, estimate, sweep and trace requests to
// a server whose store and trace library were filled at set-up. The
// measured phase must not emulate.
func runServeWarm(b *bench) error {
	// With a live heap of about 5 MB the collector runs every few
	// megabytes allocated at the default GOGC, and run-to-run
	// differences in GC pacing swamped the latencies (p99 spreads of
	// 10-17% over seeds). A larger heap goal keeps allocation visible
	// in alloc_mb and go.gc_s while making the latencies repeatable.
	debug.SetGCPercent(serveGOGC)
	b.settings["gogc"] = serveGOGC
	hot := hotWriteVariants[b.rng.IntN(len(hotWriteVariants))]
	b.settings["hot_write_lines"] = hot
	// The stream: perPass requests of each class, spread over the
	// distinct requests of that class, in a seed-shuffled order. Each
	// set-up maps it onto its own server's requests.
	type slot struct {
		class string
		k     int
	}
	var slots []slot
	for _, c := range classes {
		for k := range perPass[c] {
			slots = append(slots, slot{c, k})
		}
	}
	b.rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	var (
		env    *serveEnv
		stream []*request
	)
	setupOnce := func() error {
		e, err := setUpServe(b, hot)
		if err != nil {
			return err
		}
		if env != nil {
			if err := env.close(); err != nil {
				e.close()
				return err
			}
		}
		env = e
		reqs := e.requests()
		// Warm-up round: each distinct request once, fully verified.
		// It also fills the estimator's decoded-trace cache.
		cl := newClient(env.url)
		defer cl.c.CloseIdleConnections()
		byClass := map[string][]*request{}
		for _, r := range reqs {
			if s := cl.do(b, nil, r, 0); s.err != nil {
				return fmt.Errorf("warm-up %s: %w", r.class, s.err)
			}
			byClass[r.class] = append(byClass[r.class], r)
		}
		stream = stream[:0]
		for _, s := range slots {
			stream = append(stream, byClass[s.class][s.k%len(byClass[s.class])])
		}
		return nil
	}
	if err := b.setup(serveSetups, setupOnce); err != nil {
		if env != nil {
			env.close()
		}
		return err
	}
	defer func() { env.close() }()

	// Per-pass percentiles of each class; the metrics are their
	// medians over the passes, like wall_s.
	pcts := map[string][]float64{}
	pass := func() (int, error) {
		latencies := map[string][]float64{}
		env.tr.Store(b.tr)
		defer env.tr.Store(nil)
		cl := newClient(env.url)
		defer cl.c.CloseIdleConnections()
		var (
			next atomic.Int64
			wg   sync.WaitGroup
			mu   sync.Mutex
		)
		opBase := b.op
		for range serveClients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []sample
				for {
					i := int(next.Add(1)) - 1
					if i >= len(stream) || b.ctx.Err() != nil {
						break
					}
					mine = append(mine, cl.do(b, b.tr, stream[i], opBase+i+1))
				}
				mu.Lock()
				defer mu.Unlock()
				for _, s := range mine {
					b.attempted++
					b.ops[s.class]++
					if s.err != nil {
						b.fail("%s: %v", s.class, s.err)
						continue
					}
					latencies[s.class] = append(latencies[s.class], s.latency)
				}
			}()
		}
		wg.Wait()
		b.segment()
		b.op += len(stream)
		for _, c := range classes {
			xs := latencies[c]
			b.samples[c] = len(xs)
			pcts[c+"_p50_ms"] = append(pcts[c+"_p50_ms"], median0(xs)*1e3)
			if v, ok := stats.Percentile(xs, 99); ok {
				pcts[c+"_p99_ms"] = append(pcts[c+"_p99_ms"], v*1e3)
			}
		}
		return len(stream), b.ctx.Err()
	}

	cs0 := env.p.CacheStats()
	ps, err := b.measure(b.traced, pass, noop)
	if err != nil {
		return err
	}
	noEmulation(b, cs0, env.p.CacheStats())
	b.samples["passes"] = len(ps)
	if !b.traced {
		fmt.Fprintf(os.Stderr, "perfbench: client latency, median over %d passes:", len(ps))
		for _, c := range classes {
			fmt.Fprintf(os.Stderr, " %s p50 %.4g ms, p99 %.4g ms;", c,
				median0(pcts[c+"_p50_ms"]), median0(pcts[c+"_p99_ms"]))
		}
		fmt.Fprintln(os.Stderr)
		return nil
	}
	// The class latencies are per-layer metrics read from the untraced
	// pass: every workload prints every end-to-end metric, and only
	// serve-warm sends requests.
	for name, vs := range pcts {
		b.metricLayer(name, stats.Median(vs))
	}

	// Traced: the profile covers one more set-up and one pass on it.
	c0, p0 := gcCounters()
	var prom0 map[string]float64
	err = b.tracedPass(ps, func() error {
		if err := setupOnce(); err != nil {
			return err
		}
		cs0, prom0 = env.p.CacheStats(), promValues(env.reg)
		return nil
	}, pass, func() error {
		noEmulation(b, cs0, env.p.CacheStats())
		for _, app := range serveTraced {
			rec := env.traced[app]
			if _, err := replayOwn(b, rec.trace); err != nil {
				b.fail("trace of %s: %v", rec.key, err)
			}
			if err := b.tr.span("library.get", 0, 0, func() error {
				_, err := env.lib.Get(rec.key)
				return err
			}); err != nil {
				b.fail("library has no trace for %s: %v", rec.key, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	gcReport(b, c0, p0)
	cs1, prom1 := env.p.CacheStats(), promValues(env.reg)
	if hits, misses := cs1.Hits-cs0.Hits, cs1.Misses-cs0.Misses; hits+misses > 0 {
		b.metricLayer("platform.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	b.metricLayer("platform.disk_hits", float64(cs1.DiskHits))
	eh := prom1["hybridserved_estimate_hits_total"] - prom0["hybridserved_estimate_hits_total"]
	em := prom1["hybridserved_estimate_misses_total"] - prom0["hybridserved_estimate_misses_total"]
	if eh+em > 0 {
		b.metricLayer("estimate.hit_ratio", eh/(eh+em))
	}
	b.metricLayer("estimate.decodes", prom1["hybridserved_estimate_loads_total"])
	var sim simCounts
	for _, g := range env.grid {
		sim.add(g.res)
	}
	for _, rec := range env.traced {
		sim.add(rec.res)
		sim.traceBytes += uint64(len(rec.trace))
		if t, err := env.lib.Get(rec.key); err == nil {
			sim.quanta += uint64(t.Quanta())
		}
	}
	sim.report(b, b.e2e["setup_s"].Value)
	return nil
}

// noEmulation marks the run broken if the platform computed anything
// between two snapshots: serve-warm's measured phase must only read.
func noEmulation(b *bench, before, after hybridmem.CacheStats) {
	if after.Misses != before.Misses || after.DiskMisses != before.DiskMisses {
		b.broken = true
		fmt.Fprintf(os.Stderr, "perfbench: the measured phase emulated (cache misses %d -> %d, computes %d -> %d)\n",
			before.Misses, after.Misses, before.DiskMisses, after.DiskMisses)
	}
}

// newClient returns a client keeping one connection per load
// generator alive.
func newClient(url string) *client {
	return &client{url: url, c: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients, DisableCompression: true,
	}}}
}

// promValues reads every sample of a registry's Prometheus text
// exposition, keyed by metric name (labels dropped).
func promValues(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[name] = v
		}
	}
	return out
}
