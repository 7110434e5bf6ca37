package main

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
)

// Layer timing from outside the program: the traced run wraps each
// subject's replica.State, the scenario's Finalize and cluster factory,
// and every assertion, and records a span around each call. Nothing in
// the engine is instrumented; the wrappers sit on the public seams the
// engine already calls through.

// Subject modules, named after their packages under internal/subjects.
var modules = []string{"roshi", "orbit", "replicadb", "yorkie", "crdts"}

// replica.State methods, in metric-name form.
var calls = []string{"apply", "sync_payload", "apply_sync", "snapshot", "restore", "fingerprint"}

const (
	callApply = iota
	callSyncPayload
	callApplySync
	callSnapshot
	callRestore
	callFingerprint
	nCalls
)

// Layer ids: one per (module, call), then the engine-side wrappers.
var (
	layerFinalize   = len(modules) * nCalls
	layerNewCluster = layerFinalize + 1
	layerAssert     = layerFinalize + 2
	nLayers         = layerFinalize + 3
)

func subjectLayer(module, call int) int { return module*nCalls + call }

func layerName(l int) string {
	switch l {
	case layerFinalize:
		return "runner.finalize"
	case layerNewCluster:
		return "runner.new_cluster"
	case layerAssert:
		return "check.assert"
	}
	return modules[l/nCalls] + "." + calls[l%nCalls]
}

// layerStat accumulates one layer's work: calls, self time (span
// duration minus the part its child spans cover) and payload bytes.
type layerStat struct {
	calls  int64
	selfNs int64
	bytes  int64
}

// span is one recorded call. Start and end are nanoseconds since the
// tracer's base time; parent indexes the same recorder's spans (-1 for a
// root); rec is the recorder (one per cluster, plus one per run for the
// assertions, which the engine checks on its coordinating goroutine).
type span struct {
	layer      int32
	rec        int32
	parent     int32
	start, end int64
}

// tracer owns every recorder of a traced pass.
type tracer struct {
	base     time.Time
	maxSpans int64
	kept     atomic.Int64 // spans retained so far, across recorders

	mu      sync.Mutex
	recs    []*recorder
	byClust map[*replica.Cluster]*recorder
	// newCluster is timed outside any recorder: the factory runs before
	// the cluster it builds has one.
	newCluster layerStat
}

// newTracer retains at most maxSpans spans; statistics cover every call.
func newTracer(maxSpans int64) *tracer {
	return &tracer{base: time.Now(), maxSpans: maxSpans, byClust: make(map[*replica.Cluster]*recorder)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) newRecorder() *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{t: t, id: int32(len(t.recs))}
	t.recs = append(t.recs, r)
	return r
}

// recorder records the spans of one goroutine-confined call stack: the
// engine uses each cluster from one worker at a time.
type recorder struct {
	t     *tracer
	id    int32
	stack []frame
	stats []layerStat
	spans []span
}

type frame struct {
	layer int
	start int64
	child int64 // time covered by child spans
	span  int32 // index into spans, -1 when not retained
}

func (r *recorder) begin(layer int) {
	if r.stats == nil {
		r.stats = make([]layerStat, nLayers)
	}
	f := frame{layer: layer, span: -1, start: r.t.now()}
	if r.t.kept.Add(1) <= r.t.maxSpans {
		parent := int32(-1)
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1].span
		}
		f.span = int32(len(r.spans))
		r.spans = append(r.spans, span{layer: int32(layer), rec: r.id, parent: parent, start: f.start})
	}
	r.stack = append(r.stack, f)
}

func (r *recorder) end(bytes int) {
	end := r.t.now()
	n := len(r.stack) - 1
	f := r.stack[n]
	r.stack = r.stack[:n]
	dur := end - f.start
	st := &r.stats[f.layer]
	st.calls++
	st.selfNs += dur - f.child
	st.bytes += int64(bytes)
	if f.span >= 0 {
		r.spans[f.span].end = end
	}
	if n > 0 {
		r.stack[n-1].child += dur
	}
}

// stats sums every recorder's per-layer statistics.
func (t *tracer) stats() []layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]layerStat, nLayers)
	for _, r := range t.recs {
		for l, st := range r.stats {
			out[l].calls += st.calls
			out[l].selfNs += st.selfNs
			out[l].bytes += st.bytes
		}
	}
	out[layerNewCluster] = t.newCluster
	return out
}

// retained returns every retained span in recorder order.
func (t *tracer) retained() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, r := range t.recs {
		out = append(out, r.spans...)
	}
	return out
}

// moduleOf maps a subject state to its module index by package path.
func moduleOf(st replica.State) (int, error) {
	typ := reflect.TypeOf(st)
	for typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	pkg := typ.PkgPath()
	pkg = pkg[strings.LastIndexByte(pkg, '/')+1:]
	for i, m := range modules {
		if m == pkg {
			return i, nil
		}
	}
	return 0, fmt.Errorf("state type %s is not from a known subject module", typ)
}

// instrument returns the scenario with its cluster factory, Finalize and
// assertions wrapped in spans recorded by t.
func (t *tracer) instrument(s runner.Scenario, asserts []runner.Assertion) (runner.Scenario, []runner.Assertion) {
	newCluster := s.NewCluster
	s.NewCluster = func() (*replica.Cluster, error) {
		start := t.now()
		c, err := newCluster()
		dur := t.now() - start
		t.mu.Lock()
		t.newCluster.calls++
		t.newCluster.selfNs += dur
		t.mu.Unlock()
		if err != nil {
			return nil, err
		}
		rec := t.newRecorder()
		states := make(map[event.ReplicaID]replica.State, len(c.IDs()))
		for _, id := range c.IDs() {
			n, err := c.Node(id)
			if err != nil {
				return nil, err
			}
			states[id], err = wrapState(n.State, rec)
			if err != nil {
				return nil, err
			}
		}
		wrapped := replica.NewCluster(states)
		t.mu.Lock()
		t.byClust[wrapped] = rec
		t.mu.Unlock()
		return wrapped, nil
	}
	if finalize := s.Finalize; finalize != nil {
		s.Finalize = func(c *replica.Cluster) error {
			t.mu.Lock()
			rec := t.byClust[c]
			t.mu.Unlock()
			rec.begin(layerFinalize)
			err := finalize(c)
			rec.end(0)
			return err
		}
	}
	assertRec := t.newRecorder()
	wrappedAsserts := make([]runner.Assertion, len(asserts))
	for i, a := range asserts {
		wrappedAsserts[i] = timedAssertion{a, assertRec}
	}
	return s, wrappedAsserts
}

type timedAssertion struct {
	runner.Assertion
	rec *recorder
}

func (a timedAssertion) Check(o *runner.Outcome) error {
	a.rec.begin(layerAssert)
	err := a.Assertion.Check(o)
	a.rec.end(0)
	return err
}

// wrapState times every State call. A state that implements
// replica.Versioned gets a wrapper that forwards StateVersion: without it
// the cluster's version-keyed snapshot and fingerprint caches switch off
// and the traced run does more work than the untraced one.
func wrapState(st replica.State, rec *recorder) (replica.State, error) {
	module, err := moduleOf(st)
	if err != nil {
		return nil, err
	}
	ts := &timedState{inner: st, rec: rec, module: module}
	if v, ok := st.(replica.Versioned); ok {
		return &timedVersioned{timedState: ts, v: v}, nil
	}
	return ts, nil
}

type timedState struct {
	inner  replica.State
	rec    *recorder
	module int
}

type timedVersioned struct {
	*timedState
	v replica.Versioned
}

func (s *timedVersioned) StateVersion() uint64 { return s.v.StateVersion() }

func (s *timedState) Apply(op replica.Op) (string, error) {
	s.rec.begin(subjectLayer(s.module, callApply))
	out, err := s.inner.Apply(op)
	s.rec.end(0)
	return out, err
}

func (s *timedState) SyncPayload() ([]byte, error) {
	s.rec.begin(subjectLayer(s.module, callSyncPayload))
	p, err := s.inner.SyncPayload()
	s.rec.end(len(p))
	return p, err
}

func (s *timedState) ApplySync(payload []byte) error {
	s.rec.begin(subjectLayer(s.module, callApplySync))
	err := s.inner.ApplySync(payload)
	s.rec.end(0)
	return err
}

func (s *timedState) Snapshot() ([]byte, error) {
	s.rec.begin(subjectLayer(s.module, callSnapshot))
	b, err := s.inner.Snapshot()
	s.rec.end(len(b))
	return b, err
}

func (s *timedState) Restore(snapshot []byte) error {
	s.rec.begin(subjectLayer(s.module, callRestore))
	err := s.inner.Restore(snapshot)
	s.rec.end(0)
	return err
}

func (s *timedState) Fingerprint() string {
	s.rec.begin(subjectLayer(s.module, callFingerprint))
	fp := s.inner.Fingerprint()
	s.rec.end(0)
	return fp
}
