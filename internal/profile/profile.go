// Package profile implements the resource-profiling extension the paper
// names as future work (§8: "resource profiling and fuzzing"): it measures
// what each explored interleaving costs the replicated system — RDL
// operations executed, synchronization payload bytes shipped, snapshot
// sizes — and aggregates the distribution across an exploration, so that
// order-dependent resource blow-ups (like ReplicaDB's issue-#79 buffer
// growth) show up as outliers even before they violate an assertion.
//
// Since the telemetry layer landed, the profiler is a thin veneer over a
// telemetry.Registry: every figure it tracks is an atomic counter or
// running-max gauge under the profile.* namespace, so profiling shares the
// engine's export surface (expvar, /metrics, snapshot merging) and is safe
// for a single Profiler shared across a multi-worker pool, where every
// worker's cluster wraps states against the same instance.
package profile

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Profiler accumulates resource metrics. Wrap the replica states at
// cluster construction and pass OnOutcome to the runner config; both hooks
// are lock-free and safe from concurrent pool workers.
type Profiler struct {
	reg *telemetry.Registry

	// opCounters caches op-name → counter so Apply never re-derives the
	// metric name or takes the registry's registration lock.
	opCounters sync.Map // string → *telemetry.Counter

	syncBytesOut  *telemetry.Counter
	syncBytesIn   *telemetry.Counter
	snapshotBytes *telemetry.Counter
	interleavings *telemetry.Counter
	failedOps     *telemetry.Counter
	maxPayload    *telemetry.Gauge
	maxFailed     *telemetry.Gauge
}

// New returns a profiler backed by a private registry.
func New() *Profiler { return NewWith(telemetry.New()) }

// NewWith returns a profiler that registers its metrics on reg, so resource
// figures export through the same status server and snapshots as the
// engine's own telemetry. Metric names: profile.op.<name>,
// profile.sync_bytes_{out,in}, profile.snapshot_bytes,
// profile.interleavings, profile.failed_ops, and the running maxima
// profile.max_payload_bytes and profile.max_failed_per_interleaving.
func NewWith(reg *telemetry.Registry) *Profiler {
	return &Profiler{
		reg:           reg,
		syncBytesOut:  reg.Counter("profile.sync_bytes_out"),
		syncBytesIn:   reg.Counter("profile.sync_bytes_in"),
		snapshotBytes: reg.Counter("profile.snapshot_bytes"),
		interleavings: reg.Counter("profile.interleavings"),
		failedOps:     reg.Counter("profile.failed_ops"),
		maxPayload:    reg.Gauge("profile.max_payload_bytes"),
		maxFailed:     reg.Gauge("profile.max_failed_per_interleaving"),
	}
}

// Registry exposes the backing registry (to attach a status server or merge
// snapshots). Nil when the profiler itself is nil.
func (p *Profiler) Registry() *telemetry.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Wrap instruments a replica state; all resource flows through the state
// are accounted to the profiler. A state that implements replica.Versioned
// stays Versioned through the wrapper, so the cluster's version-keyed
// snapshot and fingerprint caches keep working; one that does not is not
// made to claim it.
func (p *Profiler) Wrap(inner replica.State) replica.State {
	ps := &profiledState{inner: inner, p: p}
	if v, ok := inner.(replica.Versioned); ok {
		return &profiledVersioned{profiledState: ps, v: v}
	}
	return ps
}

// OnOutcome is the runner hook counting per-interleaving outcomes.
func (p *Profiler) OnOutcome(o *runner.Outcome) {
	p.interleavings.Inc()
	p.failedOps.Add(int64(len(o.FailedOps)))
	p.maxFailed.Max(int64(len(o.FailedOps)))
}

// opCounter returns the cached counter for an op name.
func (p *Profiler) opCounter(name string) *telemetry.Counter {
	if c, ok := p.opCounters.Load(name); ok {
		return c.(*telemetry.Counter)
	}
	c, _ := p.opCounters.LoadOrStore(name, p.reg.Counter("profile.op."+name))
	return c.(*telemetry.Counter)
}

// Snapshot returns a copy of the current metrics.
func (p *Profiler) Snapshot() Report {
	snap := p.reg.Snapshot()
	ops := make(map[string]int)
	for name, v := range snap.Counters {
		if op, ok := strings.CutPrefix(name, "profile.op."); ok {
			ops[op] = int(v)
		}
	}
	return Report{
		Ops:            ops,
		SyncBytesOut:   p.syncBytesOut.Value(),
		SyncBytesIn:    p.syncBytesIn.Value(),
		MaxPayload:     int(p.maxPayload.Value()),
		SnapshotBytes:  p.snapshotBytes.Value(),
		Interleavings:  int(p.interleavings.Value()),
		FailedOps:      int(p.failedOps.Value()),
		MaxFailedPerIL: int(p.maxFailed.Value()),
	}
}

// Report is a point-in-time view of the metrics.
type Report struct {
	Ops            map[string]int
	SyncBytesOut   int64
	SyncBytesIn    int64
	MaxPayload     int
	SnapshotBytes  int64
	Interleavings  int
	FailedOps      int
	MaxFailedPerIL int
}

// Render formats the report for humans.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "interleavings explored: %d\n", r.Interleavings)
	fmt.Fprintf(&b, "failed ops: %d total, worst interleaving %d\n", r.FailedOps, r.MaxFailedPerIL)
	fmt.Fprintf(&b, "sync traffic: %d B out, %d B in, largest payload %d B\n",
		r.SyncBytesOut, r.SyncBytesIn, r.MaxPayload)
	fmt.Fprintf(&b, "checkpoint traffic: %d B\n", r.SnapshotBytes)
	names := make([]string, 0, len(r.Ops))
	for name := range r.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  op %-24s %d\n", name, r.Ops[name])
	}
	return b.String()
}

// profiledState instruments one replica's state.
type profiledState struct {
	inner replica.State
	p     *Profiler
}

// profiledVersioned is a profiledState whose inner state is Versioned.
type profiledVersioned struct {
	*profiledState
	v replica.Versioned
}

func (s *profiledVersioned) StateVersion() uint64 { return s.v.StateVersion() }

var (
	_ replica.State     = (*profiledState)(nil)
	_ replica.Versioned = (*profiledVersioned)(nil)
)

func (s *profiledState) Apply(op replica.Op) (string, error) {
	s.p.opCounter(op.Name).Inc()
	return s.inner.Apply(op)
}

func (s *profiledState) SyncPayload() ([]byte, error) {
	payload, err := s.inner.SyncPayload()
	if err == nil {
		s.p.syncBytesOut.Add(int64(len(payload)))
		s.p.maxPayload.Max(int64(len(payload)))
	}
	return payload, err
}

func (s *profiledState) ApplySync(payload []byte) error {
	s.p.syncBytesIn.Add(int64(len(payload)))
	return s.inner.ApplySync(payload)
}

func (s *profiledState) Snapshot() ([]byte, error) {
	snap, err := s.inner.Snapshot()
	if err == nil {
		s.p.snapshotBytes.Add(int64(len(snap)))
	}
	return snap, err
}

func (s *profiledState) Restore(snap []byte) error { return s.inner.Restore(snap) }

func (s *profiledState) Fingerprint() string { return s.inner.Fingerprint() }
