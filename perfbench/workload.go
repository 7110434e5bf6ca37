package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/miscon"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// engine is the exploration configuration a workload runs every scenario
// under. The scenarios themselves come from the paper's fixed corpus.
type engine struct {
	workers      int
	prefixBytes  int64
	subsumeBytes int64
}

// cold is the erpi CLI's default engine: one worker, no accelerators,
// every interleaving replayed from the genesis checkpoint.
var cold = engine{workers: 1}

// accel is the fastest configuration the engine offers on two CPUs.
var accel = engine{workers: 2, prefixBytes: 1 << 20, subsumeBytes: 16 << 20}

// item is one scenario of a workload with its correctness pin.
type item struct {
	label string
	cap   int
	// want is the pinned FirstViolation: the paper's Fig. 8a ER-π column
	// or Table 2 "At" for the reproductions, 0 for a fixed subject, which
	// must produce no violation at all.
	want  int
	setup func() (setupResult, error)
}

// setupResult is what a CLI run builds before exploring.
type setupResult struct {
	scenario runner.Scenario
	asserts  []runner.Assertion
	// Time spent building the scenario and its assertions (which for a
	// bug benchmark executes the reported trigger interleaving).
	buildNs, signatureNs, misconNs int64
	totalNs                        int64
}

type workload struct {
	name  string
	eng   engine
	items []item
}

// Fig. 8a ER-π column, in bugs.All() order.
var fig8aFirst = map[string]int{
	"Roshi-1": 19, "Roshi-2": 10, "Roshi-3": 115,
	"OrbitDB-1": 7, "OrbitDB-2": 9, "OrbitDB-3": 13, "OrbitDB-4": 121, "OrbitDB-5": 121,
	"ReplicaDB-1": 25, "ReplicaDB-2": 1801,
	"Yorkie-1": 25, "Yorkie-2": 25,
}

// Table 2 "At" column, in miscon.All() order.
var table2At = []int{2, 2, 3, 141, 2, 3, 2, 1, 7, 7, 2, 2, 2, 2}

// exhaustCaps bound the certification runs of the fixed subjects. The
// four benchmarks cover four subjects with sync-heavy (Roshi-3),
// log-heavy (OrbitDB-4), buffer-heavy (ReplicaDB-2) and
// anti-entropy-heavy (Yorkie-2) replay.
var exhaustCaps = []struct {
	name string
	cap  int
}{{"Roshi-3", 2000}, {"OrbitDB-4", 2000}, {"ReplicaDB-2", 8000}, {"Yorkie-2", 500}}

func workloadByName(name string) (*workload, error) {
	switch name {
	case "exhaust-cold":
		return &workload{name: name, eng: cold, items: exhaustItems()}, nil
	case "exhaust-accel":
		return &workload{name: name, eng: accel, items: exhaustItems()}, nil
	case "repro-paper":
		return &workload{name: name, eng: cold, items: reproItems()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want exhaust-cold, exhaust-accel or repro-paper)", name)
}

func exhaustItems() []item {
	var out []item
	for _, e := range exhaustCaps {
		name := e.name
		out = append(out, item{label: name + "/fixed", cap: e.cap, setup: func() (setupResult, error) {
			b, ok := bugs.ByName(name)
			if !ok {
				return setupResult{}, fmt.Errorf("bug %s missing from the corpus", name)
			}
			return setupBug(b, b.BuildFixed)
		}})
	}
	return out
}

func reproItems() []item {
	var out []item
	for _, b := range bugs.All() {
		name := b.Name
		out = append(out, item{label: name, cap: runner.DefaultMaxInterleavings, want: fig8aFirst[name],
			setup: func() (setupResult, error) {
				b, ok := bugs.ByName(name)
				if !ok {
					return setupResult{}, fmt.Errorf("bug %s missing from the corpus", name)
				}
				return setupBug(b, b.Build)
			}})
	}
	for i, sc := range miscon.All() {
		i, name := i, sc.Name()
		out = append(out, item{label: name, cap: runner.DefaultMaxInterleavings, want: table2At[i],
			setup: func() (setupResult, error) {
				start := time.Now()
				sc := miscon.All()[i]
				s, err := sc.Build()
				if err != nil {
					return setupResult{}, err
				}
				asserts := sc.NewAssertions()
				return setupResult{scenario: s, asserts: asserts, misconNs: int64(time.Since(start))}, nil
			}})
	}
	return out
}

// setupRepeats is how many times each scenario is set up per pass. Set-up
// takes milliseconds, so a single GC cycle or page-fault burst can double
// one measurement; the median of several cannot be moved by one.
const setupRepeats = 5

// setupMedian sets the item up setupRepeats times and reports the median
// of each timing; the last set-up is the one the pass explores.
func setupMedian(it item) (setupResult, error) {
	var total, build, sig, mis [setupRepeats]float64
	var su setupResult
	for r := 0; r < setupRepeats; r++ {
		start := time.Now()
		var err error
		su, err = it.setup()
		if err != nil {
			return setupResult{}, err
		}
		total[r] = float64(time.Since(start))
		build[r], sig[r], mis[r] = float64(su.buildNs), float64(su.signatureNs), float64(su.misconNs)
	}
	su.totalNs = int64(summarize(total[:]).Median)
	su.buildNs = int64(summarize(build[:]).Median)
	su.signatureNs = int64(summarize(sig[:]).Median)
	su.misconNs = int64(summarize(mis[:]).Median)
	return su, nil
}

// setupBug builds a bug benchmark's scenario and its manifestation
// assertion on a fresh Benchmark, so the reported signature is computed
// again, as every CLI run computes it.
func setupBug(b *bugs.Benchmark, build func() (runner.Scenario, error)) (setupResult, error) {
	start := time.Now()
	s, err := build()
	if err != nil {
		return setupResult{}, err
	}
	built := time.Now()
	asserts, err := b.NewAssertions()
	if err != nil {
		return setupResult{}, err
	}
	return setupResult{scenario: s, asserts: asserts,
		buildNs: int64(built.Sub(start)), signatureNs: int64(time.Since(built))}, nil
}

// scenarioResult is one scenario's exploration in a pass.
type scenarioResult struct {
	label          string
	explored       int
	covered        int // executed + subsumed
	failed         int // quarantined, or all of explored when a check fails
	subsumed       int
	firstViolation int
	violations     int
	sigDigest      string
	wallNs         int64
	cpuNs          int64
	probeNs        int64 // both probe runs around the exploration
	setupNs        int64
	mismatch       string
}

// pass is one sweep over a workload's scenarios.
type pass struct {
	scenarios []scenarioResult
	setupNs   int64
	buildNs   int64
	sigNs     int64
	misconNs  int64
	wallNs    int64 // exploration wall time, summed over scenarios
	cpuNs     int64 // process CPU during exploration
	covered   int
	attempted int
	failed    int
	subsumed  int

	allocBytes, allocs uint64
	gcCPU, goCPU       float64

	// Traced passes only.
	layers         []layerStat
	eventsExecuted int64
	eventsSkipped  int64
	evictions      int64
	pruneBuildNs   int64
	pruneNextNs    int64
	pruneDrained   int
}

// runOpts selects how a pass runs.
type runOpts struct {
	eng    engine
	tracer *tracer // nil: untraced
	// telemetry attaches a registry per run (the traced run reads the
	// engine's own counters from it).
	telemetry bool
	probe     *probe
}

var goMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
	{Name: "/cpu/classes/scavenge/total:cpu-seconds"},
}

type goSample struct {
	allocBytes, allocs  uint64
	gc, user, scavenger float64
}

func readGo() goSample {
	metrics.Read(goMetrics)
	return goSample{
		allocBytes: goMetrics[0].Value.Uint64(),
		allocs:     goMetrics[1].Value.Uint64(),
		gc:         goMetrics[2].Value.Float64(),
		user:       goMetrics[3].Value.Float64(),
		scavenger:  goMetrics[4].Value.Float64(),
	}
}

// runPass sweeps the items in the given order.
func runPass(items []item, order []int, o runOpts) (*pass, error) {
	p := &pass{}
	for _, i := range order {
		it := items[i]
		su, err := setupMedian(it)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", it.label, err)
		}
		p.setupNs += su.totalNs
		p.buildNs += su.buildNs
		p.sigNs += su.signatureNs
		p.misconNs += su.misconNs

		s, asserts := su.scenario, su.asserts
		if o.tracer != nil {
			s, asserts = o.tracer.instrument(s, asserts)
		}
		sigs := sigSet{}
		cfg := runner.Config{
			Mode:             runner.ModeERPi,
			MaxInterleavings: it.cap,
			Workers:          o.eng.workers,
			PrefixCacheBytes: o.eng.prefixBytes,
			SubsumptionTable: o.eng.subsumeBytes,
			StopOnViolation:  true,
			Assertions:       asserts,
			OnOutcome:        sigs.add,
		}
		var reg *telemetry.Registry
		if o.telemetry {
			reg = telemetry.New()
			cfg.Telemetry = reg
		}
		// The probe brackets the exploration; its host speed scales the
		// scenario's set-up time too.
		probeNs := int64(0)
		if o.probe != nil {
			probeNs = o.probe.run()
		}
		g0, cpu0 := readGo(), processCPU()
		start := time.Now()
		res, err := runner.Run(s, cfg)
		wall := int64(time.Since(start))
		cpu1, g1 := processCPU(), readGo()
		if o.probe != nil {
			probeNs += o.probe.run()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", it.label, err)
		}
		p.wallNs += wall
		p.cpuNs += cpu1 - cpu0
		p.allocBytes += g1.allocBytes - g0.allocBytes
		p.allocs += g1.allocs - g0.allocs
		p.gcCPU += g1.gc - g0.gc
		p.goCPU += (g1.gc + g1.user + g1.scavenger) - (g0.gc + g0.user + g0.scavenger)

		r := scenarioResult{
			label:          it.label,
			explored:       res.Explored,
			covered:        res.Explored - len(res.Quarantined),
			failed:         len(res.Quarantined),
			subsumed:       res.Subsumed,
			firstViolation: res.FirstViolation,
			violations:     len(res.Violations),
			sigDigest:      sigs.digest(),
			wallNs:         wall,
			cpuNs:          cpu1 - cpu0,
			probeNs:        probeNs,
			setupNs:        su.totalNs,
		}
		switch {
		case len(res.Quarantined) > 0:
			r.mismatch = fmt.Sprintf("%d interleavings quarantined: %v", len(res.Quarantined), res.Quarantined[0])
		case it.want == 0 && len(res.Violations) > 0:
			r.mismatch = fmt.Sprintf("fixed subject violated: %v", res.Violations[0])
		case res.FirstViolation != it.want:
			r.mismatch = fmt.Sprintf("first violation at #%d, paper pins #%d", res.FirstViolation, it.want)
		}
		if r.mismatch != "" {
			r.failed = r.explored
		}
		p.scenarios = append(p.scenarios, r)
		p.covered += r.covered
		p.attempted += r.explored
		p.failed += r.failed
		p.subsumed += r.subsumed

		if reg != nil {
			snap := reg.Snapshot()
			p.eventsExecuted += snap.Counters["runner.events_executed"]
			p.eventsSkipped += snap.Counters["runner.events_skipped"]
			p.evictions += snap.Counters["runner.prefix_evictions"]
		}
		if o.tracer != nil {
			// The explorer on its own: built and drained to the same
			// number of interleavings the run explored.
			buildStart := time.Now()
			ex, err := runner.NewExplorer(s, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: explorer: %w", it.label, err)
			}
			nextStart := time.Now()
			n := 0
			for n < res.Explored {
				if _, ok := ex.Next(); !ok {
					break
				}
				n++
			}
			p.pruneNextNs += int64(time.Since(nextStart))
			p.pruneBuildNs += int64(nextStart.Sub(buildStart))
			p.pruneDrained += n
		}
	}
	if o.tracer != nil {
		p.layers = o.tracer.stats()
	}
	return p, nil
}

// shuffled returns the pass order for pass number k of a run: a seeded
// permutation of the workload's scenarios.
func shuffled(n int, seed int64, k int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	return rng.Perm(n)
}

// sigSet is the set of outcome signatures one exploration produced.
// Subsumed interleavings produce no outcome, so only the set (not the
// sequence) is invariant across engine configurations.
type sigSet map[uint64]struct{}

// add folds an outcome's observable result into the set. Map entries are
// combined order-independently, so no sorting is needed on the hot path.
func (s sigSet) add(o *runner.Outcome) {
	var sum uint64
	for id, v := range o.Observations {
		sum += mix(fnvString(fnvUint(fnvOffset^'o', uint64(id)), v))
	}
	for rep, fp := range o.Fingerprints {
		sum += mix(fnvString(fnvString(fnvOffset^'f', string(rep))^0xff, fp))
	}
	for _, id := range o.FailedOps {
		sum += mix(fnvUint(fnvOffset^'x', uint64(id)))
	}
	if o.Converged {
		sum += mix(fnvOffset ^ 'c')
	}
	s[sum] = struct{}{}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvUint(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	return h
}

// mix is a 64-bit finalizer, so summed entry hashes do not cancel.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (s sigSet) digest() string {
	keys := make([]uint64, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := sha256.New()
	var b [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(b[:], k)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// correctnessDigest folds what a pass must reproduce exactly, scenario by
// scenario in label order: first violation, violation count and the
// outcome-signature set. It is independent of the pass order (the seed)
// and of timing.
func correctnessDigest(p *pass) string {
	rs := append([]scenarioResult(nil), p.scenarios...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].label < rs[j].label })
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%s|%d|%d|%s\n", r.label, r.firstViolation, r.violations, r.sigDigest)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
