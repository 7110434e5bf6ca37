package profile

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/subjects/roshi"
	"github.com/er-pi/erpi/internal/telemetry"
)

// profiledScenario builds a Roshi workload whose replicas are wrapped by
// the profiler (unwrapped when p is nil).
func profiledScenario(t *testing.T, p *Profiler) runner.Scenario {
	t.Helper()
	return wrappedScenario(t, func(st replica.State) replica.State {
		if p == nil {
			return st
		}
		return p.Wrap(st)
	}, false)
}

// wrappedScenario builds the Roshi workload with every replica state
// passed through wrap. deep appends a third insert and sync, so the
// six-event log is long enough for subsumption's frontier checks (every
// four events) to snapshot the cluster mid-run.
func wrappedScenario(t *testing.T, wrap func(replica.State) replica.State, deep bool) runner.Scenario {
	t.Helper()
	newCluster := func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": wrap(roshi.New(roshi.Flags{})),
			"B": wrap(roshi.New(roshi.Flags{})),
		}), nil
	}
	cluster, err := newCluster()
	if err != nil {
		t.Fatal(err)
	}
	rec := runner.NewRecorder(cluster)
	rec.Update("A", "insert", "k", "x", "1")
	rec.Sync("A", "B")
	rec.Update("B", "insert", "k", "y", "2")
	rec.Sync("B", "A")
	if deep {
		rec.Update("A", "insert", "k", "z", "3")
		rec.Sync("A", "B")
	}
	log, err := rec.Log()
	if err != nil {
		t.Fatal(err)
	}
	return runner.Scenario{Name: "profiled", Log: log, NewCluster: newCluster}
}

func TestProfilerAccountsExploration(t *testing.T) {
	p := New()
	s := profiledScenario(t, p)
	res, err := runner.Run(s, runner.Config{
		Mode:      runner.ModeDFS,
		OnOutcome: p.OnOutcome,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Explored != 24 {
		t.Fatalf("explored %d, want all 24", res.Explored)
	}
	r := p.Snapshot()
	if r.Interleavings != 24 {
		t.Fatalf("profiled %d interleavings, want 24", r.Interleavings)
	}
	// Every interleaving executes two inserts; the recording adds two more.
	if got := r.Ops["insert"]; got != 2*24+2 {
		t.Fatalf("insert count = %d, want 50", got)
	}
	if r.SyncBytesOut == 0 || r.SyncBytesIn == 0 {
		t.Fatal("sync traffic unaccounted")
	}
	if r.MaxPayload <= 0 || int64(r.MaxPayload) > r.SyncBytesOut {
		t.Fatalf("MaxPayload = %d", r.MaxPayload)
	}
	if r.SnapshotBytes == 0 {
		t.Fatal("checkpoint traffic unaccounted")
	}

	rendered := r.Render()
	for _, want := range []string{"interleavings explored: 24", "sync traffic", "op insert"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q:\n%s", want, rendered)
		}
	}
}

// TestProfilerAggregatesAcrossWorkers: one Profiler shared by every pool
// worker's cluster totals resources exactly as the sequential run does —
// the hooks are atomic, and the pool explores the identical interleaving
// set. Snapshot bytes are excluded: each worker owns a cluster, so
// checkpoint traffic legitimately scales with the pool.
func TestProfilerAggregatesAcrossWorkers(t *testing.T) {
	run := func(workers int) (*Profiler, Report) {
		t.Helper()
		reg := telemetry.New()
		p := NewWith(reg)
		s := profiledScenario(t, p)
		res, err := runner.Run(s, runner.Config{
			Mode:      runner.ModeDFS,
			Workers:   workers,
			OnOutcome: p.OnOutcome,
			Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exhausted || res.Explored != 24 {
			t.Fatalf("workers=%d explored %d, want all 24", workers, res.Explored)
		}
		return p, p.Snapshot()
	}

	_, seq := run(1)
	p, par := run(8)

	if par.Interleavings != seq.Interleavings || par.Interleavings != 24 {
		t.Fatalf("interleavings: parallel %d, sequential %d", par.Interleavings, seq.Interleavings)
	}
	for name, want := range seq.Ops {
		if got := par.Ops[name]; got != want {
			t.Fatalf("op %s: parallel %d, sequential %d", name, got, want)
		}
	}
	if par.SyncBytesOut != seq.SyncBytesOut || par.SyncBytesIn != seq.SyncBytesIn {
		t.Fatalf("sync traffic: parallel %d/%d, sequential %d/%d",
			par.SyncBytesOut, par.SyncBytesIn, seq.SyncBytesOut, seq.SyncBytesIn)
	}
	if par.MaxPayload != seq.MaxPayload || par.FailedOps != seq.FailedOps {
		t.Fatalf("maxima: parallel payload=%d failed=%d, sequential payload=%d failed=%d",
			par.MaxPayload, par.FailedOps, seq.MaxPayload, seq.FailedOps)
	}
	if par.SnapshotBytes < seq.SnapshotBytes {
		t.Fatalf("snapshot traffic shrank under the pool: %d < %d", par.SnapshotBytes, seq.SnapshotBytes)
	}

	// The profile rides the shared registry: its counters sit next to the
	// engine's own metrics in one snapshot.
	snap := p.Registry().Snapshot()
	if snap.Counters["profile.interleavings"] != 24 {
		t.Fatalf("profile.interleavings = %d on the shared registry", snap.Counters["profile.interleavings"])
	}
	if snap.Counters["runner.explored"] != 24 {
		t.Fatalf("runner.explored = %d on the shared registry", snap.Counters["runner.explored"])
	}
}

func TestProfilerSeesOrderDependentCost(t *testing.T) {
	// The profiler's purpose: resource use varies with the interleaving.
	// Sync payloads carry whatever state exists when the sync runs, so the
	// max payload across exploration exceeds the payload of the leanest
	// order. We verify max > min by profiling two single-interleaving runs.
	lean := New()
	s := profiledScenario(t, lean)
	// Interleaving where syncs run before the inserts: empty payloads.
	if _, err := runner.ExecuteOnce(s, []event.ID{1, 3, 0, 2}); err != nil {
		t.Fatal(err)
	}
	leanBytes := lean.Snapshot().SyncBytesOut

	heavy := New()
	s2 := profiledScenario(t, heavy)
	// Recording order: syncs carry the inserts.
	if _, err := runner.ExecuteOnce(s2, []event.ID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	heavyBytes := heavy.Snapshot().SyncBytesOut

	if heavyBytes <= leanBytes {
		t.Fatalf("expected order-dependent sync cost: heavy=%d lean=%d", heavyBytes, leanBytes)
	}
}

// unversioned hides a state's replica.Versioned implementation: only the
// State methods are promoted.
type unversioned struct{ replica.State }

// TestProfilerWrapKeepsVersioned: Wrap forwards replica.Versioned exactly
// when the inner state implements it, so a profiled run keeps the
// cluster's version-keyed caches — same outcome stream as an unprofiled
// run, and fewer state serializations than a profiled run whose states
// hide their versions.
func TestProfilerWrapKeepsVersioned(t *testing.T) {
	p := New()
	if _, ok := p.Wrap(roshi.New(roshi.Flags{})).(replica.Versioned); !ok {
		t.Fatal("Wrap of a versioned state dropped replica.Versioned")
	}
	if _, ok := p.Wrap(unversioned{roshi.New(roshi.Flags{})}).(replica.Versioned); ok {
		t.Fatal("Wrap of an unversioned state claims replica.Versioned")
	}

	run := func(s runner.Scenario) string {
		t.Helper()
		var outcomes []*runner.Outcome
		if _, err := runner.Run(s, runner.Config{
			Mode:             runner.ModeDFS,
			Workers:          1,
			SubsumptionTable: 1 << 20,
			OnOutcome:        func(o *runner.Outcome) { outcomes = append(outcomes, o) },
		}); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(outcomes)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	plain := run(wrappedScenario(t, func(st replica.State) replica.State { return st }, true))
	versioned := New()
	if got := run(wrappedScenario(t, versioned.Wrap, true)); got != plain {
		t.Fatal("profiling changed the Workers-1 outcome stream")
	}
	hidden := New()
	if got := run(wrappedScenario(t, func(st replica.State) replica.State { return hidden.Wrap(unversioned{st}) }, true)); got != plain {
		t.Fatal("hiding StateVersion changed the Workers-1 outcome stream")
	}
	if v, h := versioned.Snapshot().SnapshotBytes, hidden.Snapshot().SnapshotBytes; v >= h {
		t.Fatalf("versioned profiled run serialized %d snapshot bytes, unversioned %d — the version-keyed caches are off", v, h)
	}
}
