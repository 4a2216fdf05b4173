package main

import (
	"bytes"
	"fmt"
	"os"

	hybridmem "repro"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/trace/library"
)

// baseOptions are every benchmark platform's options: quick scale and
// serial emulation, so the numbers measure the program, not the
// scheduler of a 2-core host.
func baseOptions(extra ...hybridmem.Option) []hybridmem.Option {
	return append([]hybridmem.Option{hybridmem.WithScale(hybridmem.Quick), hybridmem.WithParallelism(1)}, extra...)
}

// dacapoApps are the paper's 11 DaCapo applications.
var dacapoApps = []string{"avrora", "bloat", "eclipse", "fop", "luindex", "lusearch",
	"lu.Fix", "pmd", "pmd.S", "sunflow", "xalan"}

// warmupSpec is the emulate workloads' set-up: one short emulation on
// a fresh platform, so lazy initialisation and heap growth happen
// before the measured phase.
var warmupSpec = hybridmem.RunSpec{AppName: "avrora", Collector: hybridmem.PCMOnly}

// emulateSetups is how many times the emulate workloads set up. One
// set-up takes about 0.2 s, so single ones vary by 30% or more; the
// median of seven is what setup_s reports.
const emulateSetups = 7

// emulateSetup runs the warm-up emulation emulateSetups times.
func emulateSetup(b *bench) error {
	return b.setup(emulateSetups, func() error {
		_, err := hybridmem.New(baseOptions()...).Run(b.ctx, warmupSpec)
		return err
	})
}

// simCounts totals simulated quantities over a pass's Results. They
// depend only on the emulated specs, so they repeat exactly.
type simCounts struct {
	memLines, pcmWriteLines, zeroedPages uint64
	minorGCs, fullGCs                    uint64
	pagesMigrated, quanta, traceBytes    uint64
	seconds                              float64
}

func (s *simCounts) add(res hybridmem.Result) {
	s.memLines += res.DRAMReadLines + res.PCMReadLines + res.DRAMWriteLines + res.PCMWriteLines
	s.pcmWriteLines += res.PCMWriteLines
	s.zeroedPages += res.ZeroedPages
	s.pagesMigrated += res.PagesMigrated
	s.seconds += res.Seconds
	for _, st := range res.RuntimeStats {
		s.minorGCs += uint64(st.MinorGCs)
		s.fullGCs += uint64(st.FullGCs)
	}
}

// report prints the counts as per-layer metrics; hostSeconds is the
// untraced host time that emulated them.
func (s simCounts) report(b *bench, hostSeconds float64) {
	b.metricLayer("sim.mem_lines", float64(s.memLines))
	b.metricLayer("sim.pcm_write_lines", float64(s.pcmWriteLines))
	b.metricLayer("sim.seconds", s.seconds)
	b.metricLayer("kernel.zeroed_pages", float64(s.zeroedPages))
	b.metricLayer("jvm.minor_gcs", float64(s.minorGCs))
	b.metricLayer("jvm.full_gcs", float64(s.fullGCs))
	b.metricLayer("policy.pages_migrated", float64(s.pagesMigrated))
	b.metricLayer("policy.quanta", float64(s.quanta))
	b.metricLayer("trace.bytes", float64(s.traceBytes))
	if s.memLines > 0 {
		b.metricLayer("sim.host_ns_per_mem_line", hostSeconds*1e9/float64(s.memLines))
	}
}

// gcReport reports Go GC activity between two gcCounters snapshots.
func gcReport(b *bench, c0 uint32, p0 uint64) {
	c1, p1 := gcCounters()
	b.metricLayer("go.gc_cycles", float64(c1-c0))
	b.metricLayer("go.gc_pause_ms", float64(p1-p0)/1e6)
}

// runDacapo is emulate-dacapo: the serial, cold paperfigs-shaped grid
// of the 11 DaCapo applications x {PCM-Only, KG-N, KG-W} under the
// Static policy in Emulation mode. Every run starts on a fresh
// Platform writing through to a fresh store directory; one operation
// is one run.
func runDacapo(b *bench) error {
	var specs []hybridmem.RunSpec
	for _, app := range dacapoApps {
		for _, c := range []hybridmem.Collector{hybridmem.PCMOnly, hybridmem.KGN, hybridmem.KGW} {
			specs = append(specs, hybridmem.RunSpec{AppName: app, Collector: c})
		}
	}
	if err := emulateSetup(b); err != nil {
		return err
	}
	order := b.rng.Perm(len(specs))
	type written struct {
		dir, key string
		res      hybridmem.Result
	}
	var (
		out []written
		sim simCounts
	)
	pass := func() (int, error) {
		out, sim = out[:0], simCounts{}
		for _, i := range order {
			spec := specs[i]
			op := b.nextOp()
			b.attempted++
			b.ops["run"]++
			dir := b.dir("store")
			b.collect()
			p := hybridmem.New(baseOptions(hybridmem.WithStore(dir))...)
			var res hybridmem.Result
			err := b.tr.span("hybridmem.run", 0, op, func() (err error) {
				res, err = p.Run(b.ctx, spec)
				return err
			})
			if st, serr := p.Store(); serr == nil && st != nil {
				if cerr := st.Close(); err == nil {
					err = cerr
				}
			}
			b.segment()
			if err != nil {
				b.fail("run %s/%s: %v", spec.AppName, spec.Collector, err)
				continue
			}
			out = append(out, written{dir, p.SpecKey(spec), res})
			sim.add(res)
		}
		return len(order), nil
	}
	// check runs after each measured pass: every Result against its
	// committed digest, and every store's record against the Result
	// written through to it (store.open / store.get spans when traced).
	check := func() error {
		for _, w := range out {
			b.noteResult(w.key, w.res)
			var st *store.Store
			err := b.tr.span("store.open", 0, 0, func() (err error) {
				st, err = store.Open(w.dir)
				return err
			})
			if err != nil {
				return err
			}
			var rec store.Record
			ok := true
			b.tr.span("store.get", 0, 0, func() error {
				for range getBatch {
					rec, ok = st.Get(w.key)
				}
				return nil
			})
			if cerr := st.Close(); cerr != nil {
				return cerr
			}
			if !ok || !sameResult(rec.Result, w.res) {
				b.fail("store %s does not hold the Result written through to it", w.dir)
			}
			if err := os.RemoveAll(w.dir); err != nil {
				return err
			}
		}
		return nil
	}
	ps, err := b.measure(b.traced, pass, check)
	if err != nil || !b.traced {
		return err
	}
	c0, p0 := gcCounters()
	if err := b.tracedPass(ps, noop, pass, check); err != nil {
		return err
	}
	gcReport(b, c0, p0)
	sim.report(b, ps[0].wall)
	return nil
}

// noop is a check or set-up step with nothing to do.
func noop() error { return nil }

// sameResult compares two Results by their canonical encoding.
func sameResult(a, b hybridmem.Result) bool {
	ea, err1 := hybridmem.EncodeResult(a)
	eb, err2 := hybridmem.EncodeResult(b)
	return err1 == nil && err2 == nil && bytes.Equal(ea, eb)
}

// policyRun is one emulate-policy run.
type policyRun struct {
	app       string
	instances int
	policy    hybridmem.Policy
}

// policyRuns migrate pages every quantum: pjbb at one and two
// instances (44 and 88 quanta), lusearch and xalan under both
// migrating policies, and the allocation-heavy GraphChi PR and CC.
var policyRuns = []policyRun{
	{"pjbb", 1, hybridmem.WriteThreshold}, {"pjbb", 2, hybridmem.WriteThreshold},
	{"lusearch", 1, hybridmem.WriteThreshold}, {"lusearch", 1, hybridmem.WearLevel},
	{"xalan", 1, hybridmem.WriteThreshold}, {"xalan", 1, hybridmem.WearLevel},
	{"PR", 1, hybridmem.WriteThreshold}, {"CC", 1, hybridmem.WriteThreshold},
}

// runPolicy is emulate-policy: serial, cold KG-W runs under the
// migrating policies, each recorded with WithTrace into memory and
// filed into a fresh trace library with WarmTraceLibrary. One
// operation is one run plus its library write.
func runPolicy(b *bench) error {
	if err := emulateSetup(b); err != nil {
		return err
	}
	order := b.rng.Perm(len(policyRuns))
	type recorded struct {
		key   string
		res   hybridmem.Result
		trace []byte
	}
	var (
		out []recorded
		lib *hybridmem.TraceLibrary
		sim simCounts
	)
	pass := func() (int, error) {
		out, sim = out[:0], simCounts{}
		var err error
		if lib, err = hybridmem.OpenTraceLibrary(b.dir("library")); err != nil {
			return 0, err
		}
		for _, i := range order {
			r := policyRuns[i]
			spec := hybridmem.RunSpec{AppName: r.app, Collector: hybridmem.KGW, Instances: r.instances}
			op := b.nextOp()
			b.attempted++
			b.ops["run"]++
			b.collect()
			opSpan := b.tr.start("op", 0, op)
			var buf bytes.Buffer
			p := hybridmem.New(baseOptions(hybridmem.WithPolicy(r.policy), hybridmem.WithTrace(&buf))...)
			var res hybridmem.Result
			err := b.tr.span("hybridmem.run", opSpan, op, func() (err error) {
				res, err = p.Run(b.ctx, spec)
				return err
			})
			if err == nil {
				err = b.tr.span("library.put", opSpan, op, func() error {
					return p.WarmTraceLibrary(lib, spec, res, buf.Bytes())
				})
			}
			b.tr.finish(opSpan)
			b.segment()
			if err != nil {
				b.fail("run %s x%d %s: %v", r.app, r.instances, r.policy, err)
				continue
			}
			out = append(out, recorded{p.SpecKey(spec), res, buf.Bytes()})
			sim.add(res)
			sim.traceBytes += uint64(buf.Len())
		}
		return len(order), nil
	}
	// check runs after each measured pass: every Result against its
	// committed digest, every recorded trace replayed under its own
	// policy (it must reproduce the recorded actions), and every
	// resident library trace read back.
	check := func() error {
		quanta := uint64(0)
		for _, r := range out {
			b.noteResult(r.key, r.res)
			n, err := replayOwn(b, r.trace)
			if err != nil {
				b.fail("trace of %s: %v", r.key, err)
			}
			quanta += n
		}
		sim.quanta = quanta
		for _, r := range out {
			var tr *library.Trace
			err := b.tr.span("library.get", 0, 0, func() (err error) {
				tr, err = lib.Get(r.key)
				return err
			})
			if err != nil || tr.Quanta() == 0 {
				b.fail("library has no trace for %s: %v", r.key, err)
			}
		}
		return nil
	}
	ps, err := b.measure(b.traced, pass, check)
	if err != nil || !b.traced {
		return err
	}
	c0, p0 := gcCounters()
	if err := b.tracedPass(ps, noop, pass, check); err != nil {
		return err
	}
	gcReport(b, c0, p0)
	sim.report(b, ps[0].wall)
	return nil
}

// replayOwn decodes a recorded trace and replays it under the policy
// and knobs that recorded it, returning its quantum count. A replay
// that does not reproduce the recorded actions is an error.
func replayOwn(b *bench, data []byte) (uint64, error) {
	var (
		h      trace.Header
		quanta []trace.Quantum
	)
	err := b.tr.span("trace.decode", 0, 0, func() (err error) {
		h, quanta, err = trace.DecodeAll(bytes.NewReader(data))
		return err
	})
	if err != nil {
		return 0, err
	}
	cfg := h.PolicyConfig()
	pol, err := policy.NewPolicy(cfg.Kind.String())
	if err != nil {
		return 0, err
	}
	var st trace.ReplayStats
	err = b.tr.span("trace.replay", 0, 0, func() (err error) {
		st, err = trace.ReplayDecoded(h, quanta, pol, cfg)
		return err
	})
	if err != nil {
		return 0, err
	}
	if !st.MatchesRecorded {
		return st.Quanta, fmt.Errorf("replay under %s diverges at quantum %d", cfg.Kind, st.FirstMismatchQuantum)
	}
	return st.Quanta, nil
}
