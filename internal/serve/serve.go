// Package serve implements the hybridserved HTTP service: a network
// front-end that lets many clients share one emulation Platform (and
// its durable result store). Identical concurrent requests coalesce
// into one platform compute through the Platform's single-flight
// cache; total in-flight platform work is bounded by an admission
// controller (internal/fabric/jobs) so a burst of clients cannot
// oversubscribe the host — work beyond the bounded wait queue is shed
// with 429 + Retry-After instead of queueing unboundedly.
//
// With a Fabric configured (cmd/hybridserved -peers) the server is one
// node of a sharded cluster: canonical spec keys are consistent-hashed
// across the fleet, non-owners forward runs to their owner (falling
// back to local execution when the peer is unreachable — degraded,
// never failed), and the owner's single-flight coalesces identical
// requests arriving from every node into one emulation.
//
// Endpoints:
//
//	POST /v1/run      one experiment; responds with a store.Record
//	POST /v1/sweep    a grid; streams one JSON line per completed run
//	POST /v1/autotune record a trace, search a knob grid over it offline
//	GET  /v1/results  durable-store listing with spec filters + paging
//	GET  /v1/policies the placement policies the engine offers
//	GET  /v1/trace    record a run and stream its placement trace (ndjson)
//	GET  /v1/spans    recent run-lifecycle spans (ndjson, oldest first; ?trace= filters)
//	GET  /v1/runs     flight recorder: live + recent run lifecycle records
//	GET  /v1/runs/{id}         one run's record incl. per-phase timings
//	GET  /v1/runs/{id}/events  live ndjson progress event stream
//	GET  /v1/status   this node's status document (health + counters + runs)
//	GET  /v1/fleet/status      fleet-wide status merged over every peer
//	GET  /healthz     liveness
//	GET  /v1/healthz  node identity, ring membership, queue depth
//	GET  /metrics     counters, gauges, latency histograms (Prometheus text)
//
// Observability (internal/obs) is wired here: every request's latency
// lands in a node-labelled histogram, every run opens a span tree
// (run → cache.lookup → fabric.forward / store.lookup → emulate →
// policy.quantum) joined across forwards by the W3C traceparent
// header, and structured logs carry node, spec key, and trace id. All
// of it is side-channel — instrumented runs produce bit-identical
// Results.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hybridmem "repro"
	"repro/internal/fabric"
	"repro/internal/fabric/jobs"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace/library"
)

// Config parameterizes a Server.
type Config struct {
	// MaxInFlight bounds concurrent platform runs across all requests
	// (0 = one per host core). Requests past the bound wait in a
	// bounded queue and respect their context's cancellation.
	MaxInFlight int
	// MaxQueued bounds how many requests may wait for an in-flight
	// slot (0 = 8x MaxInFlight; negative = no waiting). Requests past
	// the queue are rejected with 429 + Retry-After.
	MaxQueued int
	// Node names this node in metric labels and /v1/healthz. Empty
	// defaults to the fabric's self name, or "local" without a fabric.
	Node string
	// Fabric, when non-nil, makes this server one node of a sharded
	// cluster: runs whose canonical key hashes to a peer are forwarded
	// there, and forwarded-in requests always execute locally.
	Fabric *fabric.Fabric
	// Registry collects the server's metrics. Nil builds a private one;
	// pass a shared registry to co-host several servers' series on one
	// /metrics page.
	Registry *obs.Registry
	// Tracer records run-lifecycle spans. Nil builds one named after
	// the node, optionally sinking to SpanSink.
	Tracer *obs.Tracer
	// SpanSink, when Tracer is nil, additionally streams every finished
	// span to this writer as ndjson (e.g. a file for offline analysis).
	// Ignored when Tracer is set.
	SpanSink io.Writer
	// Logger receives the server's structured logs. Nil falls back to
	// slog.Default() with a node attribute.
	Logger *slog.Logger
	// RecentRuns bounds the flight recorder's ring of finished runs
	// served by GET /v1/runs (0 = 256).
	RecentRuns int
	// TraceLibrary, when non-nil, is the node's compacted trace store:
	// GET /v1/trace serves resident traces from it without emulating
	// (and ingests freshly recorded ones into it), POST /v1/autotune
	// prices grids against resident traces instead of re-recording, and
	// /v1/run + /v1/sweep answer at replay speed from it under
	// ?answer=auto|estimate. hybridserved wires it up with
	// -trace-library.
	TraceLibrary *library.Library
	// ValidateEvery, with a TraceLibrary configured, runs the estimate
	// drift validator on this period: each tick re-runs one recently
	// estimated spec live, records the observed relative error in the
	// hybridserved_estimate_drift histogram, and refreshes the resident
	// trace when the error exceeds the estimate tolerance. 0 disables
	// the background loop (ValidateOnce stays available). Stop it with
	// Server.Close. hybridserved wires it up with -estimate-validate.
	ValidateEvery time.Duration
}

// Server routes the hybridserved API onto one shared Platform. It is
// an http.Handler; all endpoints are safe for concurrent use.
type Server struct {
	p        *hybridmem.Platform
	adm      *jobs.Admission
	fab      *fabric.Fabric // nil = single node
	node     string
	mux      *http.ServeMux
	tel      *obs.Telemetry
	log      *slog.Logger
	runs     *RunRegistry     // the node's flight recorder
	lib      *library.Library // nil = no trace library
	probe    *http.Client     // fleet-status fan-out probe
	requests atomic.Uint64

	// latency is the request-latency histogram per lifecycle kind.
	latency map[string]*obs.Histogram

	// Trace-library counters: requests answered from a resident trace
	// vs requests that fell through to a live emulation.
	libHits   atomic.Uint64
	libMisses atomic.Uint64

	// Estimate-tier counters: run/sweep answers served at replay speed
	// vs estimate attempts that fell through to a compute. The drift
	// validator (nil without a trace library) ground-truths served
	// estimates in the background.
	estimated atomic.Uint64
	estMisses atomic.Uint64
	validator *driftValidator

	// Fabric counters (also maintained single-node, where coalesced
	// still counts requests served without a fresh compute).
	forwarded atomic.Uint64 // runs served by a peer owner's response
	coalesced atomic.Uint64 // runs served by joining/reusing existing work
	degraded  atomic.Uint64 // forwards abandoned for local execution
}

// New builds a Server on the platform. The platform's durable store
// (if configured) is opened eagerly so a bad -store directory fails at
// startup, not on the first request. The platform the server actually
// runs on is derived with the node's telemetry attached — telemetry is
// outside result identity, so it still shares cache and store entries
// with the caller's platform.
func New(p *hybridmem.Platform, cfg Config) (*Server, error) {
	n := cfg.MaxInFlight
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	q := cfg.MaxQueued
	switch {
	case q == 0:
		q = 8 * n
	case q < 0:
		q = 0
	}
	node := cfg.Node
	if node == "" {
		if cfg.Fabric != nil {
			node = cfg.Fabric.Self()
		} else {
			node = "local"
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		var topts []obs.TracerOption
		if cfg.SpanSink != nil {
			topts = append(topts, obs.WithSpanSink(cfg.SpanSink))
		}
		tracer = obs.NewTracer(node, topts...)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default().With("node", node)
	}
	runs := NewRunRegistry(node, cfg.RecentRuns)
	tel := &obs.Telemetry{Node: node, Metrics: reg, Tracer: tracer, Logger: logger, Runs: runs}
	// Attach telemetry before the eager store open so the store tier is
	// instrumented from its first byte of replay.
	p = p.With(hybridmem.WithTelemetry(tel))
	if cfg.TraceLibrary != nil {
		// One estimator (and one decoded-trace cache) serves every
		// platform variant this server derives per request.
		p = p.With(hybridmem.WithTraceLibrary(cfg.TraceLibrary))
	}
	if _, err := p.Store(); err != nil {
		return nil, err
	}
	s := &Server{p: p, adm: jobs.NewAdmission(n, q), fab: cfg.Fabric, node: node, mux: http.NewServeMux(), tel: tel, log: logger,
		runs: runs, lib: cfg.TraceLibrary, probe: &http.Client{Timeout: statusProbeTimeout}}
	lbl := obs.Labels{"node": node}
	s.latency = map[string]*obs.Histogram{
		"run": reg.Histogram("hybridserved_run_seconds",
			"Latency of /v1/run requests (including forwards).", lbl, nil),
		"sweep": reg.Histogram("hybridserved_sweep_seconds",
			"Latency of whole /v1/sweep requests.", lbl, nil),
	}
	s.adm.SetWaitObserver(reg.Histogram("hybridserved_admission_wait_seconds",
		"Time queued requests waited for an in-flight slot.", lbl, nil))
	if s.fab != nil {
		s.fab.Instrument(tel)
	}
	if cfg.TraceLibrary != nil {
		s.validator = newDriftValidator(s, reg, lbl)
		if cfg.ValidateEvery > 0 {
			s.validator.start(cfg.ValidateEvery)
		}
	}
	s.registerMetrics(reg, lbl)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/autotune", s.handleAutotune)
	s.mux.HandleFunc("GET /v1/results", s.handleResults)
	s.mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/spans", s.handleSpans)
	s.mux.HandleFunc("GET /v1/runs", s.handleRuns)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRunDetail)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/fleet/status", s.handleFleetStatus)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/healthz", s.handleNodeHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// registerMetrics exports the server's own state — cache tiers, store
// size, admission load, fabric counters — as function-backed series
// read at scrape time, plus build identity and Go runtime health.
// Store gauges register only when a durable store is configured,
// matching the previous hand-written exposition.
func (s *Server) registerMetrics(reg *obs.Registry, lbl obs.Labels) {
	counter := func(name, help string, fn func() float64) { reg.CounterFunc(name, help, lbl, fn) }
	gauge := func(name, help string, fn func() float64) { reg.GaugeFunc(name, help, lbl, fn) }
	counter("hybridserved_cache_hits_total", "Runs served from the in-memory result cache.",
		func() float64 { return float64(s.p.CacheStats().Hits) })
	counter("hybridserved_cache_misses_total", "Runs that missed the in-memory result cache.",
		func() float64 { return float64(s.p.CacheStats().Misses) })
	gauge("hybridserved_cache_entries", "Entries held by the in-memory result cache.",
		func() float64 { return float64(s.p.CacheStats().Entries) })
	counter("hybridserved_store_hits_total", "Runs restored from the durable store.",
		func() float64 { return float64(s.p.CacheStats().DiskHits) })
	counter("hybridserved_store_misses_total", "Runs the platform had to compute.",
		func() float64 { return float64(s.p.CacheStats().DiskMisses) })
	counter("hybridserved_store_put_failures_total", "Write-through appends that failed.",
		func() float64 { return float64(s.p.CacheStats().StorePutFailures) })
	if st, err := s.p.Store(); err == nil && st != nil {
		gauge("hybridserved_store_records", "Live records in the durable store.",
			func() float64 { return float64(st.Stats().Records) })
		gauge("hybridserved_store_segments", "Segment files in the durable store.",
			func() float64 { return float64(st.Stats().Segments) })
		gauge("hybridserved_store_bytes", "Total size of the durable store's segments.",
			func() float64 { return float64(st.Stats().Bytes) })
	}
	gauge("hybridserved_inflight_runs", "Platform runs currently executing.",
		func() float64 { inflight, _ := s.adm.Depth(); return float64(inflight) })
	gauge("hybridserved_queue_depth", "Requests waiting for an in-flight slot.",
		func() float64 { _, queued := s.adm.Depth(); return float64(queued) })
	counter("hybridserved_rejected_total", "Requests shed with 429 by admission control.",
		func() float64 { return float64(s.adm.Rejected()) })
	counter("hybridserved_requests_total", "HTTP requests received.",
		func() float64 { return float64(s.requests.Load()) })
	counter("fabric_forwarded_total", "Runs served by forwarding to their ring owner.",
		func() float64 { return float64(s.forwarded.Load()) })
	counter("fabric_coalesced_total", "Runs served by joining or reusing existing work.",
		func() float64 { return float64(s.coalesced.Load()) })
	counter("fabric_degraded_total", "Forwards abandoned for local execution.",
		func() float64 { return float64(s.degraded.Load()) })
	if s.lib != nil {
		counter("hybridserved_trace_library_hits_total",
			"Trace and autotune requests served from the compacted trace library.",
			func() float64 { return float64(s.libHits.Load()) })
		counter("hybridserved_trace_library_misses_total",
			"Trace and autotune requests that fell through to a live emulation.",
			func() float64 { return float64(s.libMisses.Load()) })
		gauge("hybridserved_trace_library_traces",
			"Traces resident in the compacted trace library.",
			func() float64 { return float64(s.lib.Len()) })
		counter("hybridserved_estimate_hits_total",
			"Run/sweep answers served by the estimate tier at replay speed.",
			func() float64 { return float64(s.estimated.Load()) })
		counter("hybridserved_estimate_misses_total",
			"Estimate attempts that fell through to a platform compute.",
			func() float64 { return float64(s.estMisses.Load()) })
		counter("hybridserved_estimate_loads_total",
			"Library traces read and decoded by the estimator (coalesced across concurrent estimates).",
			func() float64 { return float64(s.p.EstimateStats().Loads) })
	}
	reg.GaugeFunc("hybridserved_build_info",
		"Build identity of this node; the value is always 1.",
		obs.Labels{"node": s.node, "goversion": runtime.Version()},
		func() float64 { return 1 })
	obs.RegisterGoRuntime(reg, lbl)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// RunRequest selects one experiment by its public names, as parsed by
// the hybridmem.Parse* functions. Zero values take the platform
// defaults (collector PCM-Only, 1 instance, default dataset, the
// platform's mode).
type RunRequest struct {
	App       string `json:"app"`
	Collector string `json:"collector,omitempty"`
	Instances int    `json:"instances,omitempty"`
	Dataset   string `json:"dataset,omitempty"`
	Mode      string `json:"mode,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Native    bool   `json:"native,omitempty"`
	// Answer selects the answer mode (auto, estimate, or exact; empty =
	// auto). The ?answer= query parameter overrides it; the resolved
	// mode rides in the body on fabric forwards.
	Answer string `json:"answer,omitempty"`
}

// errBadRequest marks client mistakes beyond the hybridmem typed
// errors (e.g. a negative instance count).
var errBadRequest = errors.New("bad request")

// parseAll parses every name of a request list.
func parseAll[T any](names []string, parse func(string) (T, error)) ([]T, error) {
	out := make([]T, len(names))
	for i, name := range names {
		v, err := parse(name)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// resolve parses a request into a spec and the platform variant to
// run it on.
func (s *Server) resolve(req RunRequest) (hybridmem.RunSpec, *hybridmem.Platform, error) {
	spec := hybridmem.RunSpec{AppName: req.App, Instances: req.Instances, Native: req.Native}
	if spec.Instances < 0 {
		// Reject rather than silently coercing: zero means "default to
		// one instance", a negative count is a client bug.
		return spec, nil, fmt.Errorf("%w: instances must be >= 0, got %d", errBadRequest, spec.Instances)
	}
	if req.Collector != "" {
		k, err := hybridmem.ParseCollector(req.Collector)
		if err != nil {
			return spec, nil, err
		}
		spec.Collector = k
	}
	if req.Dataset != "" {
		d, err := hybridmem.ParseDataset(req.Dataset)
		if err != nil {
			return spec, nil, err
		}
		spec.Dataset = d
	}
	p := s.p
	if req.Mode != "" {
		m, err := hybridmem.ParseMode(req.Mode)
		if err != nil {
			return spec, nil, err
		}
		p = p.With(hybridmem.WithMode(m))
	}
	if req.Policy != "" {
		pol, err := hybridmem.ParsePolicy(req.Policy)
		if err != nil {
			return spec, nil, err
		}
		p = p.With(hybridmem.WithPolicy(pol))
	}
	// Normalize so the Record echoed over HTTP equals the Record the
	// store persists, and validate against the platform's own factory
	// (which may know apps the global registry does not).
	spec = hybridmem.NormalizeSpec(spec)
	if err := p.Validate(spec); err != nil {
		return spec, nil, err
	}
	return spec, p, nil
}

// httpStatus maps an error to its response code: unparsable or unknown
// names are the client's fault, everything else the platform's.
func httpStatus(err error) int {
	for _, bad := range []error{
		hybridmem.ErrUnknownApp, hybridmem.ErrUnknownCollector,
		hybridmem.ErrUnknownDataset, hybridmem.ErrUnknownMode, hybridmem.ErrUnknownScale,
		hybridmem.ErrUnknownPolicy, errBadRequest,
	} {
		if errors.Is(err, bad) {
			return http.StatusBadRequest
		}
	}
	switch {
	case errors.Is(err, errNoEstimate), errors.Is(err, library.ErrNotFound):
		// answer=estimate or source=library with no resident trace to
		// answer from: the resource does not exist.
		return http.StatusNotFound
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Abandoned while queued for a slot or while running.
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// fail writes a JSON error response; admission rejection is 429.
func fail(w http.ResponseWriter, code int, err error) {
	if errors.Is(err, jobs.ErrOverloaded) {
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeJSON answers code with v as a JSON document.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// record packages a finished run as the wire/disk Record.
func record(p *hybridmem.Platform, spec hybridmem.RunSpec, res hybridmem.Result) (store.Record, error) {
	key := p.SpecKey(spec)
	sum, err := store.Sum(key, spec, res)
	if err != nil {
		return store.Record{}, err
	}
	return store.Record{V: store.RecordVersion, Key: key, Sum: sum, Spec: spec, Result: res}, nil
}

// lifecycle is one request's (or sweep cell's) span and run record.
type lifecycle struct {
	*RunHandle
	sp    *obs.Span
	sec   *obs.Histogram // the kind's request latency, if it has one
	start time.Time
}

// begin opens a span named kind with attrs (key, value pairs) under
// r's traceparent (a sweep cell's nil r nests it under the sweep), and
// a record keyed by the span ID the emulator core reports progress to.
func (s *Server) begin(ctx context.Context, r *http.Request, kind, app, key string, attrs ...string) (context.Context, *lifecycle) {
	lc := &lifecycle{start: time.Now()}
	origin := ""
	if r != nil {
		if sc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			ctx = obs.ContextWithRemote(ctx, sc)
		}
		origin = r.Header.Get(fabric.ForwardHeader)
		lc.sec = s.latency[kind]
	}
	ctx, lc.sp = s.tel.Tracer.Start(ctx, kind)
	for i := 0; i+1 < len(attrs); i += 2 {
		lc.sp.SetAttr(attrs[i], attrs[i+1])
	}
	sc := lc.sp.Context()
	lc.RunHandle = s.runs.Begin(kind, app, key, sc.TraceID, sc.SpanID, origin)
	return ctx, lc
}

// end closes the span (tagged with err), the record and the latency.
func (lc *lifecycle) end(outcome string, err error) {
	if err != nil {
		lc.sp.SetAttr("error", err.Error())
		outcome = ""
	}
	lc.sp.End()
	lc.Finish(outcome, err)
	lc.sec.Observe(time.Since(lc.start).Seconds())
}

// admit takes a slot for work that computes; h may be nil.
func (s *Server) admit(ctx context.Context, h *RunHandle) (release func(), err error) {
	release, err = s.adm.Acquire(ctx)
	if err == nil {
		h.Transition(RunAdmitted, "")
	}
	return release, err
}

// served packages a local answer, counting non-computes as coalesced.
func (s *Server) served(p *hybridmem.Platform, spec hybridmem.RunSpec, res hybridmem.Result, computed bool) (store.Record, string, error) {
	outcome := OutcomeComputed
	if !computed {
		s.coalesced.Add(1)
		outcome = OutcomeCoalesced
	}
	rec, err := record(p, spec, res)
	return rec, outcome, err
}

// runLocal executes one spec on this node. Already-available results
// (memory or store) are served immediately, and duplicates of an
// in-flight run join its single-flight entry; only work that may
// actually start a compute takes an admission slot, so neither a burst
// of cached reads nor N copies of one request queue out unrelated
// work. Every request served without running the engine — a cache or
// store read, or a join onto in-flight work — counts as coalesced, so
// N identical requests always report exactly N-1 coalesced however the
// race between them resolves.
//
// The flight-recorder handle h tracks the run's lifecycle; the
// returned outcome string is what the caller finishes it with.
func (s *Server) runLocal(ctx context.Context, h *RunHandle, p *hybridmem.Platform, spec hybridmem.RunSpec) (store.Record, string, error) {
	lookupStart := time.Now()
	res, ok := p.Peek(spec)
	s.tel.Tracer.Emit(obs.SpanContextFrom(ctx), "cache.lookup", lookupStart, time.Since(lookupStart),
		map[string]string{"hit": strconv.FormatBool(ok)})
	if ok {
		return s.served(p, spec, res, false)
	}
	if p.Joinable(spec) {
		// The compute's slot is held by the request that started it.
		h.Transition(RunLocal, "joining in-flight run")
	} else {
		release, err := s.admit(ctx, h)
		if err != nil {
			return store.Record{}, "", err
		}
		defer release()
		h.Transition(RunLocal, "")
	}
	// Not computed: a join, or a lost Peek/Joinable race to an
	// identical request whose compute the single-flight group served.
	res, computed, err := p.RunShared(ctx, spec)
	if err != nil {
		return store.Record{}, "", err
	}
	return s.served(p, spec, res, computed)
}

// dispatch routes one run to the node owning its canonical key. Without
// a fabric — or for requests a peer already forwarded here — it runs
// locally. A forward that cannot get a usable answer (unreachable peer
// past the retry budget, a non-200 response, a torn body) degrades to
// local execution: the fleet loses sharding efficiency for that key,
// never the run.
func (s *Server) dispatch(ctx context.Context, h *RunHandle, forwardedIn bool, p *hybridmem.Platform, spec hybridmem.RunSpec, wire RunRequest) (store.Record, string, error) {
	if s.fab == nil || forwardedIn {
		return s.runLocal(ctx, h, p, spec)
	}
	owner := s.fab.Owner(p.SpecKey(spec))
	if owner == s.fab.Self() {
		return s.runLocal(ctx, h, p, spec)
	}
	// A locally known result needs no network hop, wherever the key
	// lives on the ring.
	if res, ok := p.Peek(spec); ok {
		return s.served(p, spec, res, false)
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return store.Record{}, "", err
	}
	// Forwarded runs leave this node's active set: the owner's own
	// flight recorder carries the executing record, so fleet-wide
	// aggregation counts the run exactly once.
	h.Transition(RunForwarded, "owner "+owner)
	// The forward span's context rides the request to the owner as a
	// traceparent header, so the owner's spans join this trace.
	fctx, fsp := s.tel.Tracer.Start(ctx, "fabric.forward")
	fsp.SetAttr("owner", owner)
	resp, err := s.fab.Forward(fctx, owner, body)
	var rec store.Record
	switch {
	case err != nil:
		fsp.SetAttr("outcome", "transport-error")
	case resp.Status != http.StatusOK:
		// The owner answered but would not serve (overloaded, draining,
		// mid-upgrade): this node already validated the request, so it
		// runs it under its own admission control instead.
		err = fmt.Errorf("owner refused forward: %s", http.StatusText(resp.Status))
	default:
		err = json.Unmarshal(resp.Body, &rec) // a torn body degrades too
	}
	if resp != nil {
		fsp.SetAttr("status", strconv.Itoa(resp.Status))
	}
	fsp.End()
	if err == nil {
		s.forwarded.Add(1)
		return rec, OutcomeForwarded, nil
	}
	if ctx.Err() != nil {
		return store.Record{}, "", ctx.Err()
	}
	s.degraded.Add(1)
	h.Degraded()
	s.log.Warn("forward degraded to local run", "owner", owner, "key", p.SpecKey(spec), "err", err)
	return s.runLocal(ctx, h, p, spec)
}

// serveRun answers a /v1/run request r, or a sweep cell (nil r).
func (s *Server) serveRun(ctx context.Context, r *http.Request, mode string, p *hybridmem.Platform, spec hybridmem.RunSpec, wire RunRequest, attrs ...string) (store.Record, string, error) {
	key := p.SpecKey(spec)
	forwardedIn := r != nil && r.Header.Get(fabric.ForwardHeader) != ""
	attrs = append([]string{"app", spec.AppName, "key", key}, attrs...)
	if forwardedIn {
		attrs = append(attrs, "forwarded", "true")
	}
	ctx, lc := s.begin(ctx, r, "run", spec.AppName, key, attrs...)
	rec, outcome, err := s.answer(ctx, lc.RunHandle, mode, forwardedIn, p, spec, wire)
	lc.end(outcome, err)
	trace := lc.sp.Context().TraceID
	if err != nil {
		s.log.Warn("run failed", "app", spec.AppName, "key", key, "trace", trace, "err", err)
	} else {
		s.log.Debug("run served", "app", spec.AppName, "key", key, "trace", trace,
			"source", answerSource(outcome), "seconds", time.Since(lc.start).Seconds())
	}
	return rec, outcome, err
}

// handleRun serves POST /v1/run: one experiment, responded to as the
// same Record schema the store segments persist. Each request opens a
// "run" span — continuing the sender's trace when a traceparent header
// arrived — so a run forwarded across the fabric shows up as one
// distributed trace: entry-node dispatch, owner-node execution, and
// the engine's per-quantum work, all under a single trace id.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	spec, p, err := s.resolve(req)
	if err == nil {
		// The resolved mode rides in the body on forwards, where query
		// parameters do not travel.
		req.Answer, err = answerMode(r.URL.Query().Get("answer"), req.Answer)
	}
	var rec store.Record
	var outcome string
	if err == nil {
		rec, outcome, err = s.serveRun(r.Context(), r, req.Answer, p, spec, req)
	}
	if err != nil {
		fail(w, httpStatus(err), err)
		return
	}
	w.Header().Set("X-Answer-Source", answerSource(outcome))
	writeJSON(w, http.StatusOK, rec)
}

// SweepRequest enumerates a grid by its public names. Empty dimensions
// take the Sweep defaults (the full registry, all eight collectors,
// one instance, the default dataset).
type SweepRequest struct {
	Apps       []string `json:"apps,omitempty"`
	Collectors []string `json:"collectors,omitempty"`
	Instances  []int    `json:"instances,omitempty"`
	Datasets   []string `json:"datasets,omitempty"`
	Mode       string   `json:"mode,omitempty"`
	// Policies sweeps placement policies: the spec grid runs once per
	// named policy on a derived platform. Empty means the server
	// platform's own policy.
	Policies []string `json:"policies,omitempty"`
	Native   bool     `json:"native,omitempty"`
	// Answer selects the answer mode applied to every cell (auto,
	// estimate, or exact; empty = auto). The ?answer= query parameter
	// overrides it. Under estimate, cells the library cannot answer
	// become in-stream item errors, never computes.
	Answer string `json:"answer,omitempty"`
}

// SweepItem is one line of a /v1/sweep response stream. Index aligns
// the item with the request grid expanded in Sweep.Specs order
// (app-major, then collector, instances, dataset), repeated
// policy-major when the request sweeps policies; items arrive in
// completion order. Policy echoes the placement policy of the item's
// pass when the request named any.
type SweepItem struct {
	Index  int               `json:"index"`
	Key    string            `json:"key,omitempty"`
	Sum    string            `json:"sum,omitempty"`
	Policy string            `json:"policy,omitempty"`
	Spec   hybridmem.RunSpec `json:"spec"`
	Result *hybridmem.Result `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// sweepCell is one resolved run of a sweep grid and its wire request.
type sweepCell struct {
	p    *hybridmem.Platform
	spec hybridmem.RunSpec
	wire RunRequest
}

// sweepCells expands a sweep request, policy-major like RunSweep.
func (s *Server) sweepCells(req SweepRequest, mode string) ([]sweepCell, error) {
	collectors, err := parseAll(req.Collectors, hybridmem.ParseCollector)
	if err != nil {
		return nil, err
	}
	datasets, err := parseAll(req.Datasets, hybridmem.ParseDataset)
	if err != nil {
		return nil, err
	}
	policies, err := parseAll(req.Policies, hybridmem.ParsePolicy)
	if err != nil {
		return nil, err
	}
	sweep := hybridmem.NewSweep(req.Apps...).Collectors(collectors...).
		Instances(req.Instances...).Datasets(datasets...)
	if req.Native {
		sweep.Native()
	}
	specs := sweep.Specs()
	passes := max(len(policies), 1) // one per policy, or the platform's own
	cells := make([]sweepCell, 0, passes*len(specs))
	for pi := range passes {
		policy := ""
		if len(policies) > 0 {
			policy = policies[pi].String()
		}
		for _, g := range specs {
			// Resolve every cell before the stream starts (errors after
			// the 200 header can only go in-stream), from the wire request
			// a forward carries, so the owner lands on the same key.
			wire := RunRequest{
				App:       g.AppName,
				Collector: g.Collector.String(),
				Instances: g.Instances,
				Dataset:   g.Dataset.String(),
				Mode:      req.Mode,
				Policy:    policy,
				Native:    g.Native,
				Answer:    mode,
			}
			spec, p, err := s.resolve(wire)
			if err != nil {
				return nil, err
			}
			cells = append(cells, sweepCell{p: p, spec: spec, wire: wire})
		}
	}
	return cells, nil
}

// handleSweep serves POST /v1/sweep: the grid streams back as JSON
// lines as runs complete, so a client watching a long sweep sees
// progress immediately and cached entries instantly. A disconnect
// stops the grid at the next cell.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	mode, err := answerMode(r.URL.Query().Get("answer"), req.Answer)
	var cells []sweepCell
	if err == nil {
		cells, err = s.sweepCells(req, mode)
	}
	if err != nil {
		fail(w, httpStatus(err), err)
		return
	}
	// The sweep parent tracks grid completion; each cell gets its own
	// record (and its own "run" span, so the core's progress callbacks
	// route per cell, not per sweep).
	ctx, lc := s.begin(r.Context(), r, "sweep", "", "", "cells", strconv.Itoa(len(cells)))
	lc.SetCells(len(cells))
	lc.Transition(RunAdmitted, "")

	// The stream mixes provenances under auto; the header echoes the
	// mode, each item's Result carries its own Estimated tag.
	w.Header().Set("X-Answer-Source", mode)
	out := ndjson(w)
	var writeMu sync.Mutex
	workers, _ := s.adm.Capacity()
	err = jobs.Pool(ctx, workers, len(cells), func(ctx context.Context, i int) error {
		c := cells[i]
		rec, _, err := s.serveRun(ctx, nil, mode, c.p, c.spec, c.wire, "cell", strconv.Itoa(i))
		lc.CellDone()
		item := SweepItem{Index: i, Key: rec.Key, Sum: rec.Sum, Policy: c.wire.Policy, Spec: rec.Spec, Result: &rec.Result}
		if err != nil {
			// Per-item failures stay in-stream: the rest of the grid
			// keeps going, the client sees which cell broke.
			item = SweepItem{Index: i, Policy: c.wire.Policy, Spec: c.spec, Error: err.Error()}
		}
		writeMu.Lock()
		defer writeMu.Unlock()
		json.NewEncoder(out).Encode(item)
		return nil
	})
	lc.end("", err)
	s.log.Debug("sweep served", "cells", len(cells), "trace", lc.sp.Context().TraceID,
		"seconds", time.Since(lc.start).Seconds(), "err", err)
}

// ndjson starts a 200 stream that flushes every line to the client.
func ndjson(w http.ResponseWriter) io.Writer {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	return flushWriter{w: w, f: f}
}

// flushWriter flushes every write through to the client.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// resident looks key up under a ?source= selector: the trace on a hit,
// nil to record live, or an error (ErrNotFound on a library-only miss).
func (s *Server) resident(source, key string) ([]byte, error) {
	switch source {
	case "", "auto", "library", "live":
	default:
		return nil, fmt.Errorf("%w: bad source %q (want auto, library, or live)", errBadRequest, source)
	}
	if s.lib == nil || source == "live" {
		return nil, nil
	}
	tr, err := s.lib.Get(key)
	switch {
	case err == nil:
		s.libHits.Add(1)
		return tr.Bytes(), nil
	case errors.Is(err, library.ErrNotFound) && source != "library":
		s.libMisses.Add(1)
		return nil, nil
	}
	return nil, err
}

// recordLive runs spec traced under a slot (it always computes), tees
// the trace into open's writer if any, files a success in the library
// with its Result as baseline, and returns it unless only streamed.
func (s *Server) recordLive(ctx context.Context, h *RunHandle, p *hybridmem.Platform, spec hybridmem.RunSpec, key string, open func() io.Writer) ([]byte, error) {
	release, err := s.admit(ctx, h)
	if err != nil {
		return nil, err
	}
	defer release()
	var trc bytes.Buffer
	var sink io.Writer = &trc
	if open != nil {
		sink = open()
		if s.lib != nil {
			sink = io.MultiWriter(sink, &trc)
		}
	}
	h.Transition(RunLocal, "")
	res, err := p.With(hybridmem.WithTrace(sink)).Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	if s.lib != nil {
		// Ingest failures are the operator's problem (a full disk),
		// never the requester's.
		if err := s.ingestTrace(key, spec, res, trc.Bytes()); err != nil {
			s.log.Error("trace library ingest failed", "app", spec.AppName, "err", err)
		}
	}
	return trc.Bytes(), nil
}

// queryRequest reads a RunRequest from the query parameters.
func queryRequest(q url.Values) (RunRequest, error) {
	req := RunRequest{
		App:       q.Get("app"),
		Collector: q.Get("collector"),
		Dataset:   q.Get("dataset"),
		Mode:      q.Get("mode"),
		Policy:    q.Get("policy"),
	}
	if v := q.Get("instances"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return req, fmt.Errorf("bad instances %q: %w", v, err)
		}
		req.Instances = n
	}
	if v := q.Get("native"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return req, fmt.Errorf("bad native %q: %w", v, err)
		}
		req.Native = b
	}
	return req, nil
}

// handleTrace serves GET /v1/trace: the compacted placement trace of
// the experiment selected by the query parameters (?app=, ?collector=,
// ?instances=, ?dataset=, ?mode=, ?policy=, ?native=). Feed the stream
// to cmd/policyreplay (or hybridmem.ReplayTrace) to prototype policies
// against it offline.
//
// With a trace library configured, the request is answered from the
// resident trace covering the spec's neighborhood when one exists —
// no emulation, no concurrency slot — and a live recording is ingested
// into the library on the way out otherwise, so the library warms up
// from traffic. ?source=library insists on a resident trace (404 on a
// miss); ?source=live forces a fresh recording; the default (auto)
// prefers the library. The X-Trace-Source response header names which
// path answered.
//
// A live traced run always computes (a cached Result has no quanta),
// so it costs one full platform run and takes a concurrency slot.
// Validation errors are rejected before the stream starts; a platform
// failure mid-run truncates the stream, which readers surface as a
// torn tail over the valid prefix. A client that disconnects mid-
// stream cancels the emulation between scheduling quanta — the run
// stops and its slot frees instead of emulating into a dead
// connection.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req, err := queryRequest(q)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	spec, p, err := s.resolve(req)
	if err != nil {
		fail(w, httpStatus(err), err)
		return
	}
	key := p.SpecKey(spec)
	data, err := s.resident(q.Get("source"), key)
	if err != nil {
		fail(w, httpStatus(err), err)
		return
	}
	if data != nil {
		_, lc := s.begin(r.Context(), r, "trace", spec.AppName, key, "app", spec.AppName, "source", "library")
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Trace-Source", "library")
		w.Write(data)
		lc.end(OutcomeLibrary, nil)
		return
	}
	ctx, lc := s.begin(r.Context(), r, "trace", spec.AppName, key, "app", spec.AppName, "source", "live")
	streaming := false
	_, err = s.recordLive(ctx, lc.RunHandle, p, spec, key, func() io.Writer {
		streaming = true
		w.Header().Set("X-Trace-Source", "live")
		return ndjson(w)
	})
	lc.end(OutcomeComputed, err)
	if err != nil && !streaming {
		fail(w, httpStatus(err), err)
	} else if err != nil {
		// The 200 and (likely) part of the trace are already on the
		// wire; all that is left is to stop extending the stream. A
		// disconnected client lands here as context.Canceled — the
		// cancellation already stopped the emulation.
		s.log.Error("trace run stopped mid-stream", "app", spec.AppName, "err", err)
	}
}

// AutotuneGrid is the wire form of a knob grid: the cartesian product
// of the listed values per knob, empty dimensions held at their
// registry defaults, capped at hybridmem.MaxKnobGridPoints. When
// policy is omitted it is inferred from the dimensions: wear-level if
// only wearFactors is listed, write-threshold otherwise; grids that
// vary a knob their policy never reads are rejected with 400.
type AutotuneGrid struct {
	Policy          string    `json:"policy,omitempty"`
	HotWriteLines   []uint64  `json:"hotWriteLines,omitempty"`
	ColdWriteLines  []uint64  `json:"coldWriteLines,omitempty"`
	DRAMBudgetPages []uint64  `json:"dramBudgetPages,omitempty"`
	WearFactors     []float64 `json:"wearFactors,omitempty"`
}

// AutotuneRequest selects the run to record (the RunRequest fields;
// Run.Policy is the policy the trace is recorded under, defaulting to
// the grid's policy) and the knob grid to search over the recording.
// Source selects where the trace comes from when the node has a trace
// library: "auto" (default — a resident library trace if one covers
// the spec's neighborhood, else a live recording), "library" (resident
// trace or 404), or "live" (always re-record).
type AutotuneRequest struct {
	Run    RunRequest   `json:"run"`
	Grid   AutotuneGrid `json:"grid"`
	Source string       `json:"source,omitempty"`
}

// handleAutotune serves POST /v1/autotune: a traced run of the
// requested spec (a resident library trace when the node's trace
// library covers the spec's neighborhood, a live in-memory recording
// otherwise), then an offline knob-grid search over it — the response
// is the hybridmem.Autotune report: every evaluated point, the Pareto
// frontier on (stall cycles, PCM writes), and the recommended knob
// set. A library-served grid costs zero platform runs; a live one
// costs exactly one regardless of grid size — the grid itself is
// always priced by replay.
func (s *Server) handleAutotune(w http.ResponseWriter, r *http.Request) {
	var req AutotuneRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	grid := hybridmem.KnobGrid{
		HotWriteLines:   req.Grid.HotWriteLines,
		ColdWriteLines:  req.Grid.ColdWriteLines,
		DRAMBudgetPages: req.Grid.DRAMBudgetPages,
		WearFactors:     req.Grid.WearFactors,
	}
	switch {
	case req.Grid.Policy != "":
		pol, err := hybridmem.ParsePolicy(req.Grid.Policy)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		grid.Policy = pol
	case len(grid.WearFactors) > 0 && len(grid.HotWriteLines) == 0 &&
		len(grid.ColdWriteLines) == 0 && len(grid.DRAMBudgetPages) == 0:
		// Only the wear knob varies: the client means wear-level —
		// write-threshold would price every point identically.
		grid.Policy = hybridmem.WearLevel
	default:
		grid.Policy = hybridmem.WriteThreshold
	}
	if err := grid.Validate(); err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	if req.Run.Policy == "" {
		// Record under the grid's policy by default, so the recorded
		// views carry the decision history the grid is tuning.
		req.Run.Policy = grid.Policy.String()
	}
	spec, p, err := s.resolve(req.Run)
	if err == nil && spec.Native {
		// Native runs take no GC safepoints: the trace would hold zero
		// quanta and every grid point would price to nothing.
		err = fmt.Errorf("%w: native runs have no policy quanta to autotune", errBadRequest)
	}
	var key string
	var data []byte
	if err == nil {
		key = p.SpecKey(spec)
		data, err = s.resident(req.Source, key)
	}
	if err != nil {
		fail(w, httpStatus(err), err)
		return
	}

	// A resident trace needs no emulation and no slot: replay is
	// milliseconds of CPU. Otherwise it is recorded live, in memory.
	source, outcome, attrs := "library", OutcomeLibrary, []string{"app", spec.AppName, "source", "library"}
	if data == nil {
		source, outcome, attrs = "live", OutcomeComputed, attrs[:2]
	}
	ctx, lc := s.begin(r.Context(), r, "autotune", spec.AppName, key, attrs...)
	if data == nil {
		data, err = s.recordLive(ctx, lc.RunHandle, p, spec, key, nil)
	}
	var rep hybridmem.AutotuneReport
	if err == nil {
		// A corrupt resident or fresh trace is a server bug (500).
		rep, err = hybridmem.Autotune(ctx, bytes.NewReader(data), grid)
	}
	lc.end(outcome, err)
	if err != nil {
		fail(w, httpStatus(err), err)
		return
	}
	w.Header().Set("X-Trace-Source", source)
	writeJSON(w, http.StatusOK, rep)
}

// handlePolicies serves GET /v1/policies: the placement policies the
// engine offers, with the default flagged.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	type policyInfo struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		Default     bool   `json:"default,omitempty"`
	}
	var out []policyInfo
	for _, k := range hybridmem.Policies() {
		out = append(out, policyInfo{
			Name:        k.String(),
			Description: k.Description(),
			Default:     k == s.p.PolicyKind(),
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Count    int          `json:"count"`
		Policies []policyInfo `json:"policies"`
	}{Count: len(out), Policies: out})
}

// queryCount parses a non-negative ?limit= or ?offset= (def if absent).
func queryCount(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%w: %s must be a non-negative integer, got %q", errBadRequest, name, v)
	}
	return n, nil
}

// paged cuts the ?limit= / ?offset= window out of list(match); total
// counts every match, and an empty window still encodes as [].
func paged[T any](q url.Values, list func(match func(T) bool) []T, match func(T) bool) (window []T, total, offset int, err error) {
	limit, err := queryCount(q, "limit", -1)
	if err != nil {
		return nil, 0, 0, err
	}
	if offset, err = queryCount(q, "offset", 0); err != nil {
		return nil, 0, 0, err
	}
	window = list(match)
	total = len(window)
	window = window[min(offset, total):]
	if limit >= 0 && limit < len(window) {
		window = window[:limit]
	}
	return window, total, offset, nil
}

// wants reports whether got satisfies an optional filter value.
func wants(want, got string) bool { return want == "" || got == want }

// handleResults serves GET /v1/results: the durable store's listing,
// filtered by spec fields (?app=, ?collector=, ?dataset=, ?instances=,
// ?native=) and paged with ?limit= and ?offset= over the filtered,
// key-ordered records. The response's total counts every match so a
// client can page through without a second query.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	st, err := s.p.Store()
	if err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	if st == nil {
		fail(w, http.StatusNotImplemented, errors.New("no durable store configured (start hybridserved with -store)"))
		return
	}
	q := r.URL.Query()
	want, err := queryRequest(q)
	var k hybridmem.Collector
	var d hybridmem.Dataset
	if err == nil && want.Collector != "" {
		k, err = hybridmem.ParseCollector(want.Collector)
	}
	if err == nil && want.Dataset != "" {
		d, err = hybridmem.ParseDataset(want.Dataset)
	}
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	instances, native := q.Get("instances") != "", q.Get("native") != ""
	recs, total, offset, err := paged(q, st.List, func(rec store.Record) bool {
		sp := rec.Spec
		return wants(want.App, sp.AppName) &&
			(want.Collector == "" || !sp.Native && sp.Collector == k) &&
			(want.Dataset == "" || sp.Dataset == d) &&
			(!instances || sp.Instances == want.Instances) &&
			(!native || sp.Native == want.Native)
	})
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Count   int            `json:"count"`
		Total   int            `json:"total"`
		Offset  int            `json:"offset"`
		Records []store.Record `json:"records"`
	}{Count: len(recs), Total: total, Offset: offset, Records: recs})
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	inflight, _ := s.adm.Depth()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"inflight": inflight,
	})
}

// handleNodeHealthz serves GET /v1/healthz: the node's identity, its
// view of the ring membership, and its admission-controller load — the
// endpoint a cluster supervisor (or the CI smoke test) polls to decide
// a node is up and agreeing on topology.
func (s *Server) handleNodeHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.nodeStatus()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      st.Status,
		"node":        st.Node,
		"inflight":    st.Inflight,
		"queued":      st.Queued,
		"maxInflight": st.MaxInflight,
		"maxQueued":   st.MaxQueued,
		"ring":        st.Ring,
	})
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (0.0.4): the platform cache's two tiers, the server's own
// gauges, the fabric counters, latency histograms, build info, and Go
// runtime health. Every series carries a node label so a scraper
// aggregating a fleet can tell the nodes apart. See
// docs/observability.md for the full catalog.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.Metrics.WritePrometheus(w)
}

// handleSpans serves GET /v1/spans: the tracer's most recent finished
// spans as ndjson, oldest first, capped by ?limit=. ?trace=<id> keeps
// only one trace's spans — the deep link /v1/runs/{id} hands out, so a
// client can pull exactly one run's span tree without filtering client
// side (?limit= then caps the window *scanned*, not the matches). The
// ring holds a bounded window — scrape it after the runs of interest,
// or start the daemon with -spans FILE for a complete record.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	limit, err := queryCount(r.URL.Query(), "limit", 0)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	trace := r.URL.Query().Get("trace")
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, rec := range s.tel.Tracer.Recent(limit) {
		if wants(trace, rec.Trace) {
			enc.Encode(rec)
		}
	}
}
