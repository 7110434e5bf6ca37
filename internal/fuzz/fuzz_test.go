package fuzz

import (
	"fmt"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
)

func space(t *testing.T, n int) *interleave.Space {
	t.Helper()
	evs := make([]event.Event, n)
	for i := range evs {
		r := event.ReplicaID("A")
		if i%2 == 1 {
			r = "B"
		}
		evs[i] = event.Event{Kind: event.Update, Replica: r}
	}
	log, err := event.NewLog(evs)
	if err != nil {
		t.Fatal(err)
	}
	return interleave.NewSpace(log)
}

func TestFuzzerEmitsDistinctPermutations(t *testing.T) {
	f := New(space(t, 5), 1)
	seen := map[string]bool{}
	for i := 0; i < 60; i++ {
		il, ok := f.Next()
		if !ok {
			t.Fatalf("exhausted after %d", i)
		}
		if len(il) != 5 {
			t.Fatalf("incomplete interleaving %v", il)
		}
		if seen[il.Key()] {
			t.Fatalf("duplicate %v", il)
		}
		seen[il.Key()] = true
		f.ReportOutcome(il.Key(), "same-behaviour") // no novelty
	}
	if f.Explored() != 60 {
		t.Fatalf("Explored = %d", f.Explored())
	}
	f.Evolve()               // close the trailing generation
	if f.CorpusSize() != 2 { // identity + the single novel signature holder
		t.Fatalf("CorpusSize = %d, want 2", f.CorpusSize())
	}
	if f.Coverage() != 1 {
		t.Fatalf("Coverage = %d, want 1", f.Coverage())
	}
}

func TestFuzzerGrowsCorpusAtGenerationBoundary(t *testing.T) {
	f := New(space(t, 5), 2)
	f.SetGenerationSize(20)
	for i := 0; i < 20; i++ {
		il, ok := f.Next()
		if !ok {
			t.Fatal("exhausted early")
		}
		f.ReportOutcome(il.Key(), il.Key()) // every behaviour novel
		if i < 19 && f.CorpusSize() != 1 {
			t.Fatalf("corpus evolved mid-generation at child %d", i)
		}
	}
	if !f.GenerationEnd() {
		t.Fatal("generation should be fully emitted")
	}
	f.Evolve()
	if f.CorpusSize() != 21 { // identity + 20 novel entries
		t.Fatalf("CorpusSize = %d, want 21", f.CorpusSize())
	}
	if f.Coverage() != 20 {
		t.Fatalf("Coverage = %d, want 20", f.Coverage())
	}
	if f.Generations() != 1 {
		t.Fatalf("Generations = %d, want 1", f.Generations())
	}
	if f.NoveltyRate() != 1 {
		t.Fatalf("NoveltyRate = %v, want 1", f.NoveltyRate())
	}
}

func TestFuzzerDeterministicBySeed(t *testing.T) {
	run := func(seed int64) ([]string, string) {
		f := New(space(t, 6), seed)
		var out []string
		for i := 0; i < 40; i++ {
			il, ok := f.Next()
			if !ok {
				t.Fatal("exhausted early")
			}
			out = append(out, il.Key())
			f.ReportOutcome(il.Key(), fmt.Sprintf("sig-%d", i%3))
		}
		f.Evolve()
		return out, f.TrajectoryDigest()
	}
	a, da := run(9)
	b, db := run(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same sequence")
		}
	}
	if da != db {
		t.Fatalf("same seed must give same trajectory digest: %s vs %s", da, db)
	}
	c, _ := run(10)
	diff := false
	for i := 0; i < len(a) && i < len(c); i++ {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds should give different emission sequences")
	}
}

// TestClassificationOrderInvariance is the unit-level version of the
// Workers 1 vs 8 parity pin: classifying a generation's children in
// reverse arrival order must grow the exact same corpus (same trajectory
// digest) as classifying them in emit order.
func TestClassificationOrderInvariance(t *testing.T) {
	sig := func(il interleave.Interleaving) string {
		// A signature that depends only on the interleaving, with collisions
		// (first two events) so novelty filtering actually engages.
		return fmt.Sprintf("s%d-%d", il[0], il[1])
	}
	run := func(reverse bool) string {
		f := New(space(t, 6), 7)
		f.SetGenerationSize(16)
		for gen := 0; gen < 4; gen++ {
			var batch []interleave.Interleaving
			for len(batch) < 16 {
				il, ok := f.Next()
				if !ok {
					t.Fatal("exhausted early")
				}
				batch = append(batch, il)
			}
			if reverse {
				for i := len(batch) - 1; i >= 0; i-- {
					f.ReportOutcome(batch[i].Key(), sig(batch[i]))
				}
			} else {
				for _, il := range batch {
					f.ReportOutcome(il.Key(), sig(il))
				}
			}
			f.Evolve()
		}
		return f.TrajectoryDigest()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("classification order changed the corpus trajectory: %s vs %s", a, b)
	}
}

// TestDroppedChildrenDoNotSteerCorpus pins the fault-armed/dedup bypass:
// a dropped child contributes nothing to coverage, corpus, or the
// trajectory digest, even when its signature would have been novel.
func TestDroppedChildrenDoNotSteerCorpus(t *testing.T) {
	run := func(dropEven bool) string {
		f := New(space(t, 6), 11)
		f.SetGenerationSize(12)
		for gen := 0; gen < 3; gen++ {
			for i := 0; i < 12; i++ {
				il, ok := f.Next()
				if !ok {
					t.Fatal("exhausted early")
				}
				if dropEven && i%2 == 0 {
					f.ReportDropped(il.Key())
					continue
				}
				f.ReportOutcome(il.Key(), fmt.Sprintf("g%d-i%d", gen, i))
			}
			f.Evolve()
		}
		return f.TrajectoryDigest()
	}
	// Sanity: dropping children changes what is admitted (odd children only)
	// versus classifying everything.
	if run(true) == run(false) {
		t.Fatal("dropping children should change the admission stream")
	}
	// And the drop path itself is deterministic.
	if run(true) != run(true) {
		t.Fatal("drop classification must be deterministic")
	}
}

func TestFuzzerExhaustsTinySpace(t *testing.T) {
	f := New(space(t, 2), 3)
	f.SetMaxRetries(500)
	count := 0
	for {
		il, ok := f.Next()
		if !ok {
			break
		}
		count++
		f.ReportOutcome(il.Key(), "x")
	}
	// 2 units → 2 permutations, one of which (identity) is never emitted
	// by Next (only mutations are); at most 2 distinct keys exist.
	if count == 0 || count > 2 {
		t.Fatalf("emitted %d interleavings of a 2-permutation space", count)
	}
	if !f.Exhausted() {
		t.Fatal("Exhausted() must report the explicit exhausted state")
	}
	if _, ok := f.Next(); ok {
		t.Fatal("Next after exhaustion must keep returning ok=false")
	}
}

// TestClassificationAcceptedAfterExhaustion is the regression test for the
// silent-drop bug: the old fuzzer lost the pending permutation's feedback
// when Next() hit space exhaustion mid-retry-loop. The redesigned explorer
// reports exhaustion explicitly and still accepts classifications for
// every already-emitted child afterwards.
func TestClassificationAcceptedAfterExhaustion(t *testing.T) {
	f := New(space(t, 2), 3)
	f.SetMaxRetries(500)
	var last interleave.Interleaving
	for {
		il, ok := f.Next()
		if !ok {
			break
		}
		if last != nil {
			// Classify all but the newest child, so one is always pending
			// when exhaustion strikes.
			f.ReportOutcome(last.Key(), "x")
		}
		last = il
	}
	if last == nil {
		t.Fatal("space emitted nothing")
	}
	if f.Pending() != 1 {
		t.Fatalf("Pending = %d, want the one unclassified child", f.Pending())
	}
	f.ReportOutcome(last.Key(), "novel-after-exhaustion")
	if f.Pending() != 0 {
		t.Fatal("classification after exhaustion was silently dropped")
	}
	f.Evolve()
	if !f.coverage["novel-after-exhaustion"] {
		t.Fatal("post-exhaustion classification must still reach the corpus")
	}
}

func TestAdaptiveGenerationSizing(t *testing.T) {
	// Cold corpus: nothing novel → the generation doubles.
	f := New(space(t, 6), 5)
	for gen := 0; gen < 2; gen++ {
		want := f.curSize
		got := 0
		for !f.GenerationEnd() {
			il, ok := f.Next()
			if !ok {
				t.Fatal("exhausted early")
			}
			got++
			f.ReportOutcome(il.Key(), "cold")
		}
		if got != want {
			t.Fatalf("generation %d emitted %d children, want %d", gen, got, want)
		}
		f.Evolve()
	}
	if f.curSize != 4*DefaultGenerationSize {
		t.Fatalf("cold corpus should double twice: curSize = %d", f.curSize)
	}

	// Hot corpus: everything novel → the generation shrinks to the floor.
	h := New(space(t, 6), 5)
	for gen := 0; gen < 3; gen++ {
		i := 0
		for !h.GenerationEnd() {
			il, ok := h.Next()
			if !ok {
				t.Fatal("exhausted early")
			}
			h.ReportOutcome(il.Key(), fmt.Sprintf("hot-%d-%d", gen, i))
			i++
		}
		h.Evolve()
	}
	if h.curSize != minGenerationSize {
		t.Fatalf("hot corpus should shrink to the floor: curSize = %d", h.curSize)
	}

	// Fixed sizing never adapts.
	x := New(space(t, 6), 5)
	x.SetGenerationSize(10)
	for gen := 0; gen < 2; gen++ {
		for !x.GenerationEnd() {
			il, ok := x.Next()
			if !ok {
				t.Fatal("exhausted early")
			}
			x.ReportOutcome(il.Key(), "cold")
		}
		x.Evolve()
	}
	if x.curSize != 10 {
		t.Fatalf("fixed generation size must not adapt: curSize = %d", x.curSize)
	}
}

// TestLegacyReportFIFO exercises the positional Report protocol a strictly
// sequential driver uses, interleaved with key-addressed classification.
func TestLegacyReportFIFO(t *testing.T) {
	f := New(space(t, 5), 4)
	f.SetGenerationSize(8)
	a, _ := f.Next()
	b, _ := f.Next()
	c, _ := f.Next()
	f.ReportOutcome(b.Key(), "sig-b") // out-of-order key classification
	f.Report("sig-a")                 // oldest unclassified is a
	f.Report("sig-c")                 // b is done, so the cursor lands on c
	if f.Pending() != 0 {
		t.Fatalf("Pending = %d after classifying all three", f.Pending())
	}
	if f.byKey[a.Key()].sig != "sig-a" || f.byKey[c.Key()].sig != "sig-c" {
		t.Fatal("legacy Report classified the wrong children")
	}
	f.Report("ghost") // nothing unclassified: must be a no-op
	if f.Pending() != 0 {
		t.Fatal("Report on a fully classified generation must not underflow")
	}
}

func TestReportWithoutNextIsNoop(t *testing.T) {
	f := New(space(t, 3), 4)
	f.Report("ghost")
	f.ReportOutcome("no-such-key", "ghost")
	f.ReportDropped("no-such-key")
	if f.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", f.Pending())
	}
	for _, p := range f.corpus {
		if p == nil {
			t.Fatal("nil permutation admitted to corpus")
		}
	}
}
