// Command perfbench is ER-π's end-to-end benchmark. It runs one workload
// of the paper's fixed corpus for a given time and prints its metrics:
//
//	perfbench --workload exhaust-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, composed from each
// scenario's median over the passes of the run. With --trace 1 it
// alternates untraced passes with passes whose subject, Finalize,
// cluster-factory and assertion calls are timed from outside, and reports
// the per-layer split and the tracing overhead. The last line of standard
// output is the result as one JSON object; README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxSpans bounds the spans the traced run keeps for its trace file;
// layer statistics cover every call regardless.
const maxSpans = 50_000

// minPasses is the fewest measured passes a run makes, however short
// --seconds is.
const minPasses = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: exhaust-cold, exhaust-accel or repro-paper")
		seed    = flag.Int64("seed", 1, "shuffles the scenario order of every pass")
		seconds = flag.Float64("seconds", 20, "measured time per run")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the detailed report and the trace file")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// The process gets one CPU per engine worker. On a 2-vCPU VM, letting
	// the GC of a one-worker engine keep the second vCPU busy tripled
	// hypervisor steal and cut exhaust-cold's wall-clock throughput by 31%.
	runtime.GOMAXPROCS(w.eng.workers)
	b := &bench{w: w, seed: *seed, seconds: *seconds, probe: newProbe()}
	var res *result
	var report map[string]any
	if *traced == 1 {
		res, report, err = b.tracedRun()
	} else {
		res, report, err = b.untracedRun()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report["mismatches"] = b.mismatches
	path := filepath.Join(*outDir, fmt.Sprintf("%s-trace%d-seed%d.json", w.name, *traced, *seed))
	if err := writeJSON(path, report); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *traced == 1 {
		spans := filepath.Join(*outDir, fmt.Sprintf("%s-spans-seed%d.json", w.name, *seed))
		if err := writeSpans(spans, b.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "spans:", spans)
	}
	fmt.Fprintln(os.Stderr, "report:", path)
	for _, m := range b.mismatches {
		fmt.Fprintln(os.Stderr, "MISMATCH:", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	passes  int // passes made so far, warm-up included

	// ref holds each scenario's reference correctness from the warm-up.
	ref        map[string]scenarioResult
	mismatches []string
	attempted  int
	failed     int
	spans      []span
	probe      *probe
}

func (b *bench) nextOrder() []int {
	b.passes++
	return shuffled(len(b.w.items), b.seed, b.passes)
}

// warmUp runs one untimed pass (the first in-process pass runs markedly
// slower) and records the reference results every measured pass must
// reproduce.
func (b *bench) warmUp() error {
	p, err := runPass(b.w.items, b.nextOrder(), runOpts{eng: b.w.eng})
	if err != nil {
		return err
	}
	b.ref = make(map[string]scenarioResult)
	for _, r := range p.scenarios {
		b.ref[r.label] = r
	}
	b.check(p)
	return nil
}

// crossCheck explores an exhaust workload's scenarios once more under the
// other engine configuration. The accelerators promise the same
// outcome-signature set as a cold run; this checks that promise on every
// run of either workload. It runs after the measurement, so that its
// memory cannot count toward this workload's peak.
func (b *bench) crossCheck() error {
	if b.w.name == "repro-paper" {
		return nil
	}
	other := accel
	if b.w.eng == accel {
		other = cold
	}
	q, err := runPass(b.w.items, b.nextOrder(), runOpts{eng: other})
	if err != nil {
		return err
	}
	b.check(q)
	return nil
}

// check compares a pass with the warm-up reference, scenario by
// scenario, and counts its interleavings; a scenario that fails a check
// counts as failed in full.
func (b *bench) check(p *pass) {
	for i := range p.scenarios {
		r := &p.scenarios[i]
		want := b.ref[r.label]
		if r.mismatch == "" && (r.sigDigest != want.sigDigest || r.firstViolation != want.firstViolation || r.violations != want.violations) {
			r.mismatch = fmt.Sprintf("pass %d differs from the warm-up: first violation %d/%d, violations %d/%d, outcome signatures %s/%s",
				b.passes, r.firstViolation, want.firstViolation, r.violations, want.violations, r.sigDigest, want.sigDigest)
			p.failed += r.explored - r.failed
			r.failed = r.explored
		}
		if r.mismatch != "" {
			b.mismatches = append(b.mismatches, r.label+": "+r.mismatch)
		}
	}
	b.attempted += p.attempted
	b.failed += p.failed
}

func (b *bench) result(metrics map[string]metric) *result {
	return &result{
		Correct:   len(b.mismatches) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
}

// untracedRun measures the end-to-end metrics.
func (b *bench) untracedRun() (*result, map[string]any, error) {
	if err := b.warmUp(); err != nil {
		return nil, nil, err
	}
	// The peak counter restarts at every pass where the kernel allows it;
	// elsewhere the peak covers the warm-up too, which runs the same
	// engine on the same scenarios.
	canReset := resetPeakRSS() == nil
	var passes []*pass
	var ilPerS, cpuPerIL, reproS, setupS, peakMB []float64
	start := time.Now()
	for len(passes) < minPasses || time.Since(start).Seconds() < b.seconds {
		if canReset {
			if err := resetPeakRSS(); err != nil {
				return nil, nil, fmt.Errorf("reset peak RSS: %w", err)
			}
		}
		p, err := runPass(b.w.items, b.nextOrder(), runOpts{eng: b.w.eng, probe: b.probe})
		if err != nil {
			return nil, nil, err
		}
		peak, err := peakRSS()
		if err != nil {
			return nil, nil, err
		}
		b.check(p)
		passes = append(passes, p)
		ilPerS = append(ilPerS, float64(p.covered)/(float64(p.wallNs)/1e9))
		cpuPerIL = append(cpuPerIL, float64(p.cpuNs)/1e3/float64(p.covered))
		reproS = append(reproS, float64(p.wallNs)/1e9)
		setupS = append(setupS, float64(p.setupNs)/1e9)
		peakMB = append(peakMB, float64(peak)/(1<<20))
	}
	if err := b.crossCheck(); err != nil {
		return nil, nil, err
	}
	// Raw per-pass distributions, for the report.
	raw := map[string]summary{
		"il_per_s":      summarize(ilPerS),
		"cpu_us_per_il": summarize(cpuPerIL),
		"repro_s":       summarize(reproS),
		"setup_s":       summarize(setupS),
		"peak_mem_mb":   summarize(peakMB),
	}
	m := medianPass(passes)
	metrics := map[string]metric{
		"il_per_s":      {m.covered / m.wallS, "1/s"},
		"cpu_us_per_il": {m.cpuUs / m.covered, "us"},
		"repro_s":       {m.wallS, "s"},
		"setup_s":       {m.setupS, "s"},
		"peak_mem_mb":   {raw["peak_mem_mb"].Median, "MB"},
	}
	printSummaries(b.w.name, raw)
	report := map[string]any{
		"workload": b.w.name, "seed": b.seed, "passes": len(passes),
		"metrics": metrics, "raw_per_pass": raw, "probe_speed": summarize(m.speeds),
		"samples": samples(passes),
	}
	return b.result(metrics), report, nil
}

// composed holds a workload's timed metrics composed scenario by scenario.
type composed struct {
	wallS, cpuUs, setupS, covered float64
	speeds                        []float64 // every sample's host speed
}

// medianPass sums, over a workload's scenarios, each scenario's median
// across the passes of its exploration wall time, CPU time and set-up
// time, each in reference-host units (see hostSpeed), and of its
// interleavings covered.
//
// The host's speed can change under the benchmark (on a 2-vCPU cloud VM,
// CPU time per interleaving moved by up to 1.86x from one period to
// another; README.md has the measurements), so each sample is scaled by
// the probe timed around it. Per-scenario medians then drop the samples a
// short slow spell hit without discarding whole passes.
func medianPass(passes []*pass) composed {
	type series struct{ wall, cpu, setup, il []float64 }
	by := make(map[string]*series)
	var c composed
	for _, p := range passes {
		for _, r := range p.scenarios {
			s := by[r.label]
			if s == nil {
				s = &series{}
				by[r.label] = s
			}
			speed := hostSpeed(r.probeNs)
			c.speeds = append(c.speeds, speed)
			s.wall = append(s.wall, float64(r.wallNs)/1e9*speed)
			s.cpu = append(s.cpu, float64(r.cpuNs)/1e3*speed)
			s.setup = append(s.setup, float64(r.setupNs)/1e9*speed)
			s.il = append(s.il, float64(r.covered))
		}
	}
	for _, s := range by {
		c.wallS += summarize(s.wall).Median
		c.cpuUs += summarize(s.cpu).Median
		c.setupS += summarize(s.setup).Median
		c.covered += summarize(s.il).Median
	}
	return c
}

// samples lists every scenario's raw per-pass measurements, for the
// report.
func samples(passes []*pass) map[string]map[string][]int64 {
	out := make(map[string]map[string][]int64)
	for _, p := range passes {
		for _, r := range p.scenarios {
			s := out[r.label]
			if s == nil {
				s = make(map[string][]int64)
				out[r.label] = s
			}
			s["wall_ns"] = append(s["wall_ns"], r.wallNs)
			s["cpu_ns"] = append(s["cpu_ns"], r.cpuNs)
			s["setup_ns"] = append(s["setup_ns"], r.setupNs)
			s["probe_ns"] = append(s["probe_ns"], r.probeNs)
			s["covered"] = append(s["covered"], int64(r.covered))
		}
	}
	return out
}

// tracedRun alternates untraced and traced passes and splits the run
// into layers. The untraced passes give the Go runtime counters (the
// wrappers allocate nothing per call, but they do cost time) and the
// base for the tracing overhead.
func (b *bench) tracedRun() (*result, map[string]any, error) {
	if err := b.warmUp(); err != nil {
		return nil, nil, err
	}
	steal0, total0 := cpuTimes()
	var plain, traced []*pass
	start := time.Now()
	for len(traced) < minPasses || time.Since(start).Seconds() < b.seconds {
		// Alternate which side goes first, so drift over the run affects
		// both alike.
		for side := 0; side < 2; side++ {
			if (side == 0) == (len(traced)%2 == 0) {
				p, err := runPass(b.w.items, b.nextOrder(), runOpts{eng: b.w.eng, probe: b.probe})
				if err != nil {
					return nil, nil, err
				}
				b.check(p)
				plain = append(plain, p)
				continue
			}
			t := newTracer(maxSpans)
			if len(traced) > 0 {
				t.maxSpans = 0 // the trace file shows the first traced pass
			}
			p, err := runPass(b.w.items, b.nextOrder(), runOpts{eng: b.w.eng, tracer: t, telemetry: true, probe: b.probe})
			if err != nil {
				return nil, nil, err
			}
			b.check(p)
			if len(traced) == 0 {
				b.spans = t.retained()
			}
			traced = append(traced, p)
		}
	}
	steal1, total1 := cpuTimes()
	if err := b.crossCheck(); err != nil {
		return nil, nil, err
	}
	metrics := b.layerMetrics(plain, traced)
	// Both sides composed like the end-to-end metrics, so host-speed
	// changes during the run cancel out of the ratio.
	mp, mt := medianPass(plain), medianPass(traced)
	overhead := (mt.wallS/mt.covered)/(mp.wallS/mp.covered) - 1
	metrics["trace.overhead_share"] = metric{overhead, "ratio"}
	steal := 0.0
	if total1 > total0 {
		steal = float64(steal1-steal0) / float64(total1-total0)
	}
	metrics["host.steal_share"] = metric{steal, "ratio"}
	metrics["failed_share"] = metric{float64(b.failed) / float64(b.attempted), "ratio"}
	printLayers(b.w.name, metrics)
	report := map[string]any{
		"workload": b.w.name, "seed": b.seed,
		"untraced_passes": len(plain), "traced_passes": len(traced),
		"untraced_ns_per_il": mp.wallS / mp.covered * 1e9, "traced_ns_per_il": mt.wallS / mt.covered * 1e9,
		"metrics": metrics,
	}
	return b.result(metrics), report, nil
}

// layerMetrics derives the per-layer metrics. Per-interleaving figures
// divide the traced passes' totals by the interleavings they covered.
func (b *bench) layerMetrics(plain, traced []*pass) map[string]metric {
	m := make(map[string]metric)
	var covered, cpuNs, events, skipped, evictions, subsumed int64
	var pruneBuild, pruneNext, pruneDrained, newClusterCalls, newClusterNs int64
	layers := make([]layerStat, nLayers)
	for _, p := range traced {
		covered += int64(p.covered)
		cpuNs += p.cpuNs
		events += p.eventsExecuted
		skipped += p.eventsSkipped
		evictions += p.evictions
		subsumed += int64(p.subsumed)
		pruneBuild += p.pruneBuildNs
		pruneNext += p.pruneNextNs
		pruneDrained += int64(p.pruneDrained)
		for l, st := range p.layers {
			layers[l].calls += st.calls
			layers[l].selfNs += st.selfNs
			layers[l].bytes += st.bytes
		}
	}
	perIL := func(x int64) float64 { return float64(x) / float64(covered) }
	perPass := func(x int64) float64 { return float64(x) / float64(len(traced)) }
	var selfSum int64
	for mod := range modules {
		for c := 0; c < nCalls; c++ {
			st := layers[subjectLayer(mod, c)]
			name := layerName(subjectLayer(mod, c))
			m[name+".ns_per_il"] = metric{perIL(st.selfNs), "ns"}
			m[name+".calls_per_il"] = metric{perIL(st.calls), "count"}
			if c == callSyncPayload || c == callSnapshot {
				m[name+".bytes_per_il"] = metric{perIL(st.bytes), "B"}
			}
			selfSum += st.selfNs
		}
	}
	fin, nc, as := layers[layerFinalize], layers[layerNewCluster], layers[layerAssert]
	selfSum += fin.selfNs + nc.selfNs + as.selfNs
	newClusterCalls, newClusterNs = nc.calls, nc.selfNs
	m["runner.finalize.self_ns_per_il"] = metric{perIL(fin.selfNs), "ns"}
	m["runner.new_cluster.calls"] = metric{perPass(newClusterCalls), "count"}
	m["runner.new_cluster.ns"] = metric{perPass(newClusterNs), "ns"}
	m["check.assert.ns_per_il"] = metric{perIL(as.selfNs), "ns"}
	m["run.cpu_ns_per_il"] = metric{perIL(cpuNs), "ns"}
	m["runner.other.cpu_ns_per_il"] = metric{perIL(cpuNs - selfSum), "ns"}
	m["runner.events_executed_per_il"] = metric{perIL(events), "count"}
	hit := 0.0
	if events+skipped > 0 {
		hit = float64(skipped) / float64(events+skipped)
	}
	m["runner.prefix_hit_ratio"] = metric{hit, "ratio"}
	m["runner.subsumed_share"] = metric{perIL(subsumed), "ratio"}
	m["runner.prefix_evictions"] = metric{perPass(evictions), "count"}
	m["prune.build_us"] = metric{perPass(pruneBuild) / 1e3, "us"}
	m["prune.next_ns_per_il"] = metric{float64(pruneNext) / float64(max(pruneDrained, 1)), "ns"}

	var buildMs, sigMs, misconMs, allocB, allocs []float64
	var gc, goCPU float64
	for _, p := range plain {
		buildMs = append(buildMs, float64(p.buildNs)/1e6)
		sigMs = append(sigMs, float64(p.sigNs)/1e6)
		misconMs = append(misconMs, float64(p.misconNs)/1e6)
		allocB = append(allocB, float64(p.allocBytes)/float64(p.covered))
		allocs = append(allocs, float64(p.allocs)/float64(p.covered))
		gc += p.gcCPU
		goCPU += p.goCPU
	}
	m["bugs.build_ms"] = metric{summarize(buildMs).Median, "ms"}
	m["bugs.signature_ms"] = metric{summarize(sigMs).Median, "ms"}
	m["miscon.build_ms"] = metric{summarize(misconMs).Median, "ms"}
	m["go.alloc_bytes_per_il"] = metric{summarize(allocB).Median, "B"}
	m["go.allocs_per_il"] = metric{summarize(allocs).Median, "count"}
	share := 0.0
	if goCPU > 0 {
		share = gc / goCPU
	}
	m["go.gc_cpu_share"] = metric{share, "ratio"}
	return m
}

func printSummaries(workload string, sums map[string]summary) {
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: per pass, median [q1, q3]\n", workload)
	for _, n := range names {
		s := sums[n]
		pct := ""
		if s.PctValue != nil {
			pct = fmt.Sprintf(" p%d=%.6g", s.Pct, *s.PctValue)
		}
		fmt.Fprintf(os.Stderr, "  %-14s %.6g [%.6g, %.6g]%s n=%d\n", n, s.Median, s.Q1, s.Q3, pct, s.N)
	}
}

func printLayers(workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n, v := range m {
		if v.Value != 0 || !strings.Contains(n, "_per_il") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: per-layer (zero per-il layers omitted)\n", workload)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSpans writes the retained spans in Chrome trace_event form: one
// complete event per call, the recorder (a worker's cluster, or a run's
// assertions) as the thread, and the parent span's id in args.
func writeSpans(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	// Parents index their recorder's spans; number spans globally.
	base := make(map[int32]int)
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if _, ok := base[s.rec]; !ok {
			base[s.rec] = i
		}
		args := map[string]any{"id": i}
		if s.parent >= 0 {
			args["parent"] = base[s.rec] + int(s.parent)
		}
		events = append(events, event{Name: layerName(int(s.layer)), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.rec, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
