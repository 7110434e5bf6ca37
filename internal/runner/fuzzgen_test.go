package runner

import (
	"testing"

	"github.com/er-pi/erpi/internal/fault"
)

// fuzzRun runs the scenario in ModeFuzz and returns the result plus how
// many executed outcomes were fault-armed.
func fuzzRun(t *testing.T, s Scenario, workers int, sched *fault.Schedule) (*Result, int) {
	t.Helper()
	armed := 0
	res, err := Run(s, Config{
		Mode: ModeFuzz,
		Seed: 11,
		// A small explicit generation keeps synthesis cheap on this tiny
		// log; the adaptive path is pinned by internal/fuzz and the
		// five-subject parity suite.
		FuzzGenerationSize: 4,
		MaxInterleavings:   16,
		Workers:            workers,
		Faults:             sched,
		OnOutcome: func(o *Outcome) {
			if o.FaultArmed {
				armed++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fuzz == nil {
		t.Fatal("ModeFuzz result carries no fuzz stats")
	}
	return res, armed
}

// TestFuzzFaultArmedBypassesCorpus pins the two fault-schedule properties
// of the generation batch. Bypass: a fault-armed interleaving's behaviour
// reflects the injected fault, not the mutation, so it must never steer
// the corpus — with every interleaving armed, the corpus never grows past
// the identity seed. Seeded-fault determinism: probabilistic arming is a
// pure function of (schedule seed, exploration index), so under the same
// schedule the corpus trajectory must be byte-identical at one worker and
// at eight.
func TestFuzzFaultArmedBypassesCorpus(t *testing.T) {
	s := townReportScenario(t)

	// Every interleaving armed: pure bypass, the corpus cannot learn.
	always := &fault.Schedule{Faults: []fault.Fault{
		{Kind: fault.CrashReplica, Replica: "A", At: 1},
	}}
	res, armed := fuzzRun(t, s, 1, always)
	if armed != res.Explored || armed == 0 {
		t.Fatalf("always-on schedule armed %d of %d outcomes", armed, res.Explored)
	}
	if res.Fuzz.CorpusSize != 1 || res.Fuzz.Coverage != 0 {
		t.Fatalf("fault-armed outcomes steered the corpus: size %d, coverage %d",
			res.Fuzz.CorpusSize, res.Fuzz.Coverage)
	}

	// Roughly half armed, seeded: the pool must replay the same armed set
	// and land on the same trajectory at every worker count.
	half := &fault.Schedule{Seed: 3, Faults: []fault.Fault{
		{Kind: fault.CrashReplica, Replica: "A", At: 1, Prob: 0.5},
	}}
	seq, seqArmed := fuzzRun(t, s, 1, half)
	pool, poolArmed := fuzzRun(t, s, 8, half)
	if seqArmed == 0 || seqArmed == seq.Explored {
		t.Fatalf("probabilistic schedule armed %d of %d outcomes: pin is vacuous", seqArmed, seq.Explored)
	}
	if poolArmed != seqArmed {
		t.Fatalf("armed set diverged: %d at workers=8, %d at workers=1", poolArmed, seqArmed)
	}
	if pool.Fuzz.TrajectoryDigest != seq.Fuzz.TrajectoryDigest {
		t.Fatalf("seeded-fault trajectory diverged:\n workers=8 %s\n workers=1 %s",
			pool.Fuzz.TrajectoryDigest, seq.Fuzz.TrajectoryDigest)
	}
}

// TestFuzzPoolGenerationBarrier pins the pool at several widths against
// its one-worker run on the same small workload: identical trajectory,
// counters, and explored count at several worker counts, including a
// generation size that does not divide the cap (a trailing partial
// generation that must never evolve).
func TestFuzzPoolGenerationBarrier(t *testing.T) {
	for _, genSize := range []int{4, 5} {
		s := townReportScenario(t)
		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			res, err := Run(s, Config{
				Mode:               ModeFuzz,
				Seed:               5,
				FuzzGenerationSize: genSize,
				MaxInterleavings:   12,
				Workers:            workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Fuzz == nil {
				t.Fatalf("genSize=%d workers=%d: no fuzz stats", genSize, workers)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Fuzz.TrajectoryDigest != ref.Fuzz.TrajectoryDigest ||
				res.Fuzz.Generations != ref.Fuzz.Generations ||
				res.Fuzz.CorpusSize != ref.Fuzz.CorpusSize ||
				res.Explored != ref.Explored {
				t.Fatalf("genSize=%d workers=%d diverged from sequential: %+v vs %+v",
					genSize, workers, res.Fuzz, ref.Fuzz)
			}
		}
	}
}
