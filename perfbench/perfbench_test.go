package main

import (
	"slices"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/subjects/roshi"
)

// The timing wrappers must not change what the engine does: a traced
// one-worker run with both accelerators on explores, subsumes and
// executes exactly what the untraced run does, with the same outcomes.
func TestTracedRunMatchesUntraced(t *testing.T) {
	eng := engine{workers: 1, prefixBytes: accel.prefixBytes, subsumeBytes: accel.subsumeBytes}
	items := exhaustItems()
	order := []int{0, 1, 2, 3}
	plain, err := runPass(items, order, runOpts{eng: eng, telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(0)
	traced, err := runPass(items, order, runOpts{eng: eng, telemetry: true, tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range plain.scenarios {
		got := traced.scenarios[i]
		if got.mismatch != "" || want.mismatch != "" {
			t.Errorf("%s: mismatch traced=%q untraced=%q", want.label, got.mismatch, want.mismatch)
		}
		if got.explored != want.explored || got.subsumed != want.subsumed || got.sigDigest != want.sigDigest {
			t.Errorf("%s: traced explored/subsumed/signatures %d/%d/%s, untraced %d/%d/%s", want.label,
				got.explored, got.subsumed, got.sigDigest, want.explored, want.subsumed, want.sigDigest)
		}
	}
	if traced.eventsExecuted != plain.eventsExecuted || traced.eventsSkipped != plain.eventsSkipped {
		t.Errorf("events executed/skipped: traced %d/%d, untraced %d/%d",
			traced.eventsExecuted, traced.eventsSkipped, plain.eventsExecuted, plain.eventsSkipped)
	}
	if plain.subsumed == 0 || plain.eventsSkipped == 0 {
		t.Fatalf("accelerators idle (subsumed %d, events skipped %d): the test checks nothing", plain.subsumed, plain.eventsSkipped)
	}
	st := traced.layers[subjectLayer(0, callRestore)]
	if st.calls == 0 || st.selfNs <= 0 {
		t.Errorf("roshi.restore recorded %d calls in %d ns", st.calls, st.selfNs)
	}
}

// Two workers record into the tracer at once (run with -race).
func TestTracedParallelPass(t *testing.T) {
	tr := newTracer(1000)
	p, err := runPass(exhaustItems()[:1], []int{0}, runOpts{eng: accel, tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if r := p.scenarios[0]; r.mismatch != "" {
		t.Fatalf("%s: %s", r.label, r.mismatch)
	}
	if got := p.layers[layerNewCluster].calls; got != int64(accel.workers) {
		t.Errorf("runner.new_cluster calls = %d, want one per worker (%d)", got, accel.workers)
	}
	if n := len(tr.retained()); n != 1000 {
		t.Errorf("retained %d spans, want the cap of 1000", n)
	}
}

func TestWrapStateForwardsVersioned(t *testing.T) {
	st, err := wrapState(roshi.New(roshi.Flags{}), newTracer(0).newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(replica.Versioned); !ok {
		t.Fatal("wrapped roshi state lost replica.Versioned")
	}
}

// The seed reorders the scenarios of a pass and nothing else.
func TestSeedsGiveSameCorrectnessDigest(t *testing.T) {
	items := reproItems()
	o1, o2 := shuffled(len(items), 1, 1), shuffled(len(items), 2, 1)
	if slices.Equal(o1, o2) {
		t.Fatal("seeds 1 and 2 give the same order")
	}
	var digests []string
	for _, order := range [][]int{o1, o2} {
		p, err := runPass(items, order, runOpts{eng: cold})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range p.scenarios {
			if r.mismatch != "" {
				t.Errorf("%s: %s", r.label, r.mismatch)
			}
		}
		digests = append(digests, correctnessDigest(p))
	}
	if digests[0] != digests[1] {
		t.Errorf("correctness digests differ across seeds: %s, %s", digests[0], digests[1])
	}
}

// Quartiles match Python's statistics.quantiles(xs, n=4), the definition
// the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
}
