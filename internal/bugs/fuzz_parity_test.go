package bugs_test

import (
	"reflect"
	"sort"
	"testing"

	"github.com/er-pi/erpi/internal/runner"
)

// fuzzParityCap bounds each fuzz exploration: several generations deep at
// the default adaptive sizing, small enough to keep the 5-subject ×
// 2-worker-count matrix fast.
const fuzzParityCap = 160

// fuzzParitySeed pins the corpus trajectory both worker counts must share.
const fuzzParitySeed = 7

// fuzzExplore runs one ModeFuzz configuration and returns its
// deduplicated, sorted outcome-signature set plus the run counters.
func fuzzExplore(t *testing.T, s runner.Scenario, workers int) ([]string, *runner.Result) {
	t.Helper()
	set := make(map[string]struct{})
	res, err := runner.Run(s, runner.Config{
		Mode:             runner.ModeFuzz,
		Seed:             fuzzParitySeed,
		MaxInterleavings: fuzzParityCap,
		Workers:          workers,
		OnOutcome: func(o *runner.Outcome) {
			set[runner.OutcomeSignature(o)] = struct{}{}
		},
	})
	if err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	sigs := make([]string, 0, len(set))
	for sig := range set {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	return sigs, res
}

// TestFuzzGenerationParityAllSubjects is the PR's acceptance pin: for
// every evaluation subject, running the generation-batched fuzzer on the
// eight-worker pool must reproduce the one-worker run exactly — the
// same corpus trajectory digest (admission order and all), the same
// generation and corpus counters, the same deduplicated
// outcome-signature set, and the same explored count. The generation
// barrier is what makes corpus feedback commute with worker count; this
// test is the proof the unclamped pool didn't trade determinism for
// throughput.
func TestFuzzGenerationParityAllSubjects(t *testing.T) {
	subjects := paritySubjects(t)
	names := make([]string, 0, len(subjects))
	for name := range subjects {
		names = append(names, name)
	}
	sort.Strings(names)

	totalGenerations := 0
	for _, name := range names {
		s := subjects[name]
		t.Run(name, func(t *testing.T) {
			seqSigs, seqRes := fuzzExplore(t, s, 1)
			poolSigs, poolRes := fuzzExplore(t, s, 8)
			if seqRes.Fuzz == nil || poolRes.Fuzz == nil {
				t.Fatalf("fuzz stats missing: sequential=%v pool=%v", seqRes.Fuzz, poolRes.Fuzz)
			}
			if poolRes.Explored != seqRes.Explored {
				t.Fatalf("explored diverged: %d at workers=8, %d at workers=1",
					poolRes.Explored, seqRes.Explored)
			}
			if poolRes.Fuzz.TrajectoryDigest != seqRes.Fuzz.TrajectoryDigest {
				t.Fatalf("corpus trajectory diverged:\n workers=8 %s\n workers=1 %s",
					poolRes.Fuzz.TrajectoryDigest, seqRes.Fuzz.TrajectoryDigest)
			}
			for what, pair := range map[string][2]int{
				"generations": {poolRes.Fuzz.Generations, seqRes.Fuzz.Generations},
				"corpus size": {poolRes.Fuzz.CorpusSize, seqRes.Fuzz.CorpusSize},
				"coverage":    {poolRes.Fuzz.Coverage, seqRes.Fuzz.Coverage},
			} {
				if pair[0] != pair[1] {
					t.Fatalf("%s diverged: %d at workers=8, %d at workers=1", what, pair[0], pair[1])
				}
			}
			if !reflect.DeepEqual(poolSigs, seqSigs) {
				t.Fatalf("signature set diverged:\n workers=8 %v\n workers=1 %v", poolSigs, seqSigs)
			}
			totalGenerations += seqRes.Fuzz.Generations
		})
	}
	if totalGenerations == 0 {
		t.Fatal("no subject completed a single generation: the parity assertions never exercised corpus evolution")
	}
}

// TestFuzzGenerationSizeParity pins the explicit-generation-size path the
// same way: a fixed FuzzGenerationSize must also commute with worker
// count, and differ from the adaptive trajectory only in batching (same
// seed, different schedule → same determinism guarantee per config).
func TestFuzzGenerationSizeParity(t *testing.T) {
	subjects := paritySubjects(t)
	s := subjects["Roshi-1"]
	digests := make(map[int]string)
	for _, workers := range []int{1, 8} {
		res, err := runner.Run(s, runner.Config{
			Mode:               runner.ModeFuzz,
			Seed:               fuzzParitySeed,
			FuzzGenerationSize: 24,
			MaxInterleavings:   fuzzParityCap,
			Workers:            workers,
		})
		if err != nil {
			t.Fatalf("run (workers=%d): %v", workers, err)
		}
		if res.Fuzz == nil {
			t.Fatalf("fuzz stats missing at workers=%d", workers)
		}
		digests[workers] = res.Fuzz.TrajectoryDigest
	}
	if digests[1] != digests[8] {
		t.Fatalf("fixed-size trajectory diverged: workers=8 %s, workers=1 %s", digests[8], digests[1])
	}
}
