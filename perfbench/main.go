// Command perfbench is the repository's benchmark. One invocation runs
// one named workload against the public API (the hybridmem facade,
// internal/store, internal/trace, internal/trace/library and
// internal/serve), checks every output, and prints one JSON result
// line: end-to-end metrics by default, per-layer metrics with
// --trace 1. See README.md for the workloads and the metric map.
//
//	perfbench --workload emulate-dacapo --seed 1 --seconds 20 --trace 0
//	perfbench --steady 10 --workload serve-warm --seconds 20
//
// Run it through run.sh, which builds it from source first.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/perfbench/stats"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"emulate-dacapo": runDacapo,
	"emulate-policy": runPolicy,
	"serve-warm":     runServeWarm,
}

// buildDir is where run.sh builds and where runs keep scratch files.
const buildDir = ".bench_build"

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: its settings, counters, and metrics.
type bench struct {
	ctx     context.Context
	name    string
	seed    uint64
	rng     *rand.Rand
	seconds float64
	traced  bool
	work    string // per-run scratch directory inside buildDir

	// tr records spans; it is non-nil only during the traced pass.
	tr   *tracer
	op   int
	dirs int

	// live watches the heap during a measured phase; peaks holds its
	// per-segment peaks.
	live  *liveWatch
	peaks []float64

	// results are the emulated Results, for the digest check.
	results []emulated

	attempted, failed int
	// broken marks a failed check that is not an operation (the
	// measured phase of serve-warm emulating, for example).
	broken bool

	e2e      map[string]metric
	layer    map[string]metric
	samples  map[string]int // sample count behind each percentile
	ops      map[string]int // operations attempted, by kind
	settings map[string]any // seed-picked knobs, for the fingerprint
}

// fail counts a failed operation and explains it on stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if b.failed <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
}

// nextOp starts a new operation id.
func (b *bench) nextOp() int {
	b.op++
	return b.op
}

// e2eUnits are the end-to-end metrics and their units. Every untraced
// run prints all of them.
var e2eUnits = map[string]string{
	"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "alloc_mb": "MB", "peak_live_mb": "MB",
}

// layerUnits are the per-layer metrics and their units. Every traced
// run prints all of them; a layer a workload never enters reads 0.
var layerUnits = map[string]string{
	// CPU-profile self time per emulator package, and Go GC time.
	"cache.self_s": "s", "machine.self_s": "s", "memdev.self_s": "s", "kernel.self_s": "s",
	"heap.self_s": "s", "objmodel.self_s": "s", "jvm.self_s": "s", "policy.self_s": "s",
	"workloads.self_s": "s", "trace.self_s": "s", "store.self_s": "s", "go.gc_s": "s",
	// Median spans around the benchmark's calls into each layer.
	"hybridmem.run_ms": "ms", "library.put_ms": "ms", "library.get_ms": "ms",
	"store.open_ms": "ms", "store.get_us": "us", "trace.decode_ms": "ms", "trace.replay_ms": "ms",
	"serve.run_ms": "ms", "serve.estimate_ms": "ms", "serve.sweep_ms": "ms", "serve.trace_ms": "ms",
	"net.run_ms": "ms", "net.estimate_ms": "ms", "net.sweep_ms": "ms", "net.trace_ms": "ms",
	// serve-warm's client latency per request class, from the untraced pass.
	"run_p50_ms": "ms", "run_p99_ms": "ms", "estimate_p50_ms": "ms", "estimate_p99_ms": "ms",
	"sweep_p50_ms": "ms", "sweep_p99_ms": "ms", "trace_p50_ms": "ms", "trace_p99_ms": "ms",
	// Ratios and counts at the same boundaries.
	"platform.cache_hit_ratio": "ratio", "platform.disk_hits": "count",
	"estimate.hit_ratio": "ratio", "estimate.decodes": "count",
	"go.gc_cycles": "count", "go.gc_pause_ms": "ms",
	// Simulated counts, which must repeat exactly, and host time per
	// simulated memory line.
	"sim.mem_lines": "count", "sim.pcm_write_lines": "count", "sim.seconds": "s",
	"kernel.zeroed_pages": "count", "jvm.minor_gcs": "count", "jvm.full_gcs": "count",
	"policy.pages_migrated": "count", "policy.quanta": "count", "trace.bytes": "bytes",
	"sim.host_ns_per_mem_line": "ns",
	// The traced pass's own wall time and its excess over the untraced pass.
	"tracing.wall_s": "s", "tracing.overhead_s": "s",
}

func (b *bench) metricE2E(name string, v float64)   { b.e2e[name] = newMetric(e2eUnits, name, v) }
func (b *bench) metricLayer(name string, v float64) { b.layer[name] = newMetric(layerUnits, name, v) }

func newMetric(units map[string]string, name string, v float64) metric {
	u, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	return metric{v, u}
}

// dir returns a fresh scratch directory.
func (b *bench) dir(name string) string {
	b.dirs++
	return filepath.Join(b.work, fmt.Sprintf("%s-%d", name, b.dirs))
}

// setup runs fn the given number of times, reporting the median as
// setup_s.
func (b *bench) setup(repeats int, fn func() error) error {
	var secs []float64
	for range repeats {
		t := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	b.metricE2E("setup_s", stats.Median(secs))
	return nil
}

// passStat is one pass over the workload's fixed work.
type passStat struct {
	wall  float64 // seconds
	alloc float64 // bytes allocated
	ops   int
}

// measure runs whole passes of fixed work, each followed by check
// outside its timing. Untraced, it runs passes until another pass of
// the last one's length would overrun --seconds, and at least one;
// with once set it runs exactly one. It reports wall_s and alloc_mb as
// per-pass medians, ops_per_s as operations over the passes' summed
// wall time, and peak_live_mb as the mean over segments (see
// liveWatch) of the highest post-GC live heap seen in each.
func (b *bench) measure(once bool, pass func() (ops int, err error), check func() error) ([]passStat, error) {
	b.live, b.peaks = watchLive(), nil
	defer func() {
		b.live.stop()
		b.live = nil
	}()
	start := time.Now()
	var ps []passStat
	for {
		b.collect()
		a0 := readMetric("/gc/heap/allocs:bytes")
		t := time.Now()
		n, err := pass()
		wall := time.Since(t).Seconds()
		alloc := float64(readMetric("/gc/heap/allocs:bytes") - a0)
		if err == nil {
			err = check()
		}
		if err != nil {
			return nil, err
		}
		ps = append(ps, passStat{wall: wall, alloc: alloc, ops: n})
		if once || time.Since(start).Seconds()+wall > b.seconds {
			break
		}
	}
	if !b.traced {
		var walls, allocs []float64
		ops, total := 0, 0.0
		for _, p := range ps {
			walls = append(walls, p.wall)
			allocs = append(allocs, p.alloc)
			ops += p.ops
			total += p.wall
		}
		b.metricE2E("wall_s", stats.Median(walls))
		b.metricE2E("ops_per_s", float64(ops)/total)
		b.metricE2E("alloc_mb", stats.Median(allocs)/1e6)
		b.metricE2E("peak_live_mb", mean(b.peaks)/1e6)
	}
	return ps, nil
}

// tracedPass runs the traced half of a --trace 1 run: one pass with
// spans recorded and a CPU profile taken, reporting the per-layer
// self times and the tracing overhead against the untraced pass.
// before runs under the profile ahead of the pass (serve-warm's
// set-up); check follows the pass outside the profile, and its spans
// feed per-layer metrics too.
func (b *bench) tracedPass(untraced []passStat, before func() error, pass func() (int, error), check func() error) error {
	b.tr = newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	defer pprof.StopCPUProfile() // a no-op once check has stopped it
	if err := before(); err != nil {
		return err
	}
	ps, err := b.measure(true, pass, func() error {
		pprof.StopCPUProfile()
		return check()
	})
	if err != nil {
		return err
	}
	layers, err := layerSeconds(prof.Bytes())
	if err != nil {
		return err
	}
	for _, l := range []string{"cache", "machine", "memdev", "kernel", "heap", "objmodel",
		"jvm", "policy", "workloads", "trace", "store"} {
		b.metricLayer(l+".self_s", layers[l])
	}
	b.metricLayer("go.gc_s", layers["go.gc"])
	b.metricLayer("tracing.wall_s", ps[0].wall)
	b.metricLayer("tracing.overhead_s", ps[0].wall-untraced[0].wall)
	st := b.tr.times()
	for _, span := range []string{"hybridmem.run", "library.put", "library.get", "store.open",
		"trace.decode", "trace.replay"} {
		b.metricLayer(span+"_ms", median0(st.dur[span])*1e3)
	}
	b.metricLayer("store.get_us", median0(st.dur["store.get"])*1e6/getBatch)
	for _, c := range classes {
		b.metricLayer("serve."+c+"_ms", median0(st.dur["serve."+c])*1e3)
		b.metricLayer("net."+c+"_ms", median0(st.self["client."+c])*1e3)
	}
	path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := b.tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	b.tr = nil
	return nil
}

// getBatch is how many store Gets one store.get span times.
const getBatch = 1000

// median0 is the median, or 0 for an empty sample.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// mean is the arithmetic mean, or 0 for an empty sample. It averages
// per-segment live-heap peaks, where a median of 8 emulate-policy runs
// fell between two runs whose peaks depend on when the GC ran.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// liveWatch samples the post-GC live heap and keeps its peak per
// segment: one run of an emulate workload, one pass of serve-warm.
type liveWatch struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

// watchLive starts sampling /gc/heap/live:bytes every 2 ms. The value
// only changes at the end of a GC cycle, so sampling sees every
// cycle's live heap unless cycles end faster than that.
func watchLive() *liveWatch {
	w := &liveWatch{quit: make(chan struct{}), done: make(chan struct{})}
	w.peak.Store(readMetric("/gc/heap/live:bytes"))
	go func() {
		defer close(w.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.quit:
				return
			case <-tick.C:
				w.raise(readMetric("/gc/heap/live:bytes"))
			}
		}
	}()
	return w
}

// raise lifts the segment's peak to v.
func (w *liveWatch) raise(v uint64) {
	for {
		p := w.peak.Load()
		if v <= p || w.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// take ends a segment, returning its peak, and starts the next one at
// the current live heap.
func (w *liveWatch) take() uint64 {
	cur := readMetric("/gc/heap/live:bytes")
	return max(w.peak.Swap(cur), cur)
}

// stop ends sampling and waits for the sampler to exit.
func (w *liveWatch) stop() {
	close(w.quit)
	<-w.done
}

// collect runs a full GC and starts a new peak-live segment from the
// heap that is truly live, so no segment inherits garbage from the one
// before or starts with a different collector pacing. The emulate
// workloads collect before every run, so each run starts cold.
func (b *bench) collect() {
	runtime.GC()
	if b.live != nil {
		b.live.take()
	}
}

// segment ends a peak-live segment; a no-op outside a measured phase.
func (b *bench) segment() {
	if b.live != nil {
		b.peaks = append(b.peaks, float64(b.live.take()))
	}
}

// gcCounters snapshots GC cycles and total pause time.
func gcCounters() (cycles uint32, pauseNs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, ms.PauseTotalNs
}

// fingerprint describes the host and settings a result set came from.
type fingerprint struct {
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	CPU        string         `json:"cpu"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      int            `json:"trace"`
	Settings   map[string]any `json:"settings,omitempty"`
	Ops        map[string]int `json:"ops"`
	Samples    map[string]int `json:"samples"`
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git;
// a checkout that is not a git repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if data, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed for operation order and knob choices")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase")
		traced   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead")
		steady   = flag.Int("steady", 0, "run the workload this many times (seeds --seed, --seed+1, ...) and report each metric's spread")
		record   = flag.Bool("record-digests", false, "write this run's Result digests to "+digestFile+" instead of checking them")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --trace 0|1, --seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(*workload, *steady, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		ctx: ctx, name: *workload, seed: *seed, seconds: *seconds, traced: *traced == 1, work: work,
		rng: rand.New(rand.NewPCG(*seed, 0x9e3779b97f4a7c15)),
		e2e: map[string]metric{}, layer: map[string]metric{}, samples: map[string]int{}, ops: map[string]int{},
		settings: map[string]any{},
	}
	digests, err := loadDigests()
	if err == nil {
		err = run(b)
	}
	if err == nil {
		err = digests.settle(b, *record)
	}
	if rmErr := os.RemoveAll(work); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fp := fingerprint{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		Workload: b.name, Seed: b.seed, Seconds: b.seconds, Trace: *traced, Settings: b.settings, Ops: b.ops, Samples: b.samples,
	}
	res := result{Correct: b.failed == 0 && !b.broken && b.attempted > 0,
		Attempted: b.attempted, Failed: b.failed, Metrics: b.e2e}
	if b.traced {
		for name := range layerUnits {
			if _, ok := b.layer[name]; !ok {
				b.metricLayer(name, 0)
			}
		}
		res.Metrics = b.layer
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]fingerprint{"fingerprint": fp}); err != nil {
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		os.Exit(1)
	}
}

// workloadNames lists the workloads, sorted.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
