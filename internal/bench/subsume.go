package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Subsumption benchmark: state-subsumption pruning's effect on exhaustive
// exploration (DESIGN.md §4.12). Lexicographic DFS revisits the same
// cluster state through many commuting prefixes; the visited-frontier
// table proves a suffix's outcomes are already covered by an executed
// witness and skips the execution entirely. Each run replays the same DFS
// slice of Roshi-3's space at one table byte budget and reports how many
// interleavings executed vs. were subsumed, the throughput against the
// table-off baseline, and — the safety half — a digest over the
// deduplicated outcome-signature set proving the observable behavior
// inventory is unchanged. (The per-index outcome stream is NOT compared:
// subsumed indices produce no outcome by design, so the invariant is the
// signature set, not the stream.)

// DefaultSubsumeSlice is how many DFS interleavings each subsumption run
// replays. Larger than the pool slice: the frontier table needs
// enough commuting prefixes in the slice for witnesses to accumulate.
const DefaultSubsumeSlice = 512

// DefaultSubsumeBudgets are the table byte budgets swept by RunSubsume.
var DefaultSubsumeBudgets = []int64{64 << 10, 256 << 10, 1 << 20, 16 << 20}

// SubsumeRun is one table-budget measurement.
type SubsumeRun struct {
	// BudgetBytes is the subsumption table byte budget (0 = pruning off).
	BudgetBytes int64 `json:"budget_bytes"`
	Explored    int   `json:"explored"`
	// Executed is Explored minus Subsumed — interleavings that actually
	// ran against a cluster.
	Executed  int     `json:"executed"`
	Subsumed  int     `json:"subsumed"`
	HeldBytes int64   `json:"table_bytes_held"`
	Seconds   float64 `json:"seconds"`
	PerSecond float64 `json:"interleavings_per_second"`
	// Speedup is the throughput ratio against the table-off baseline.
	Speedup float64 `json:"speedup_vs_off"`
	// Reduction is baseline executions over this run's executions — the
	// paper-facing "interleavings not executed" factor.
	Reduction float64 `json:"execution_reduction"`
	// IdenticalSignatures reports whether the deduplicated outcome-
	// signature set matches the table-off baseline exactly.
	IdenticalSignatures bool   `json:"identical_signatures"`
	SignatureDigest     string `json:"signature_digest"`
}

// SubsumeReport is the BENCH_subsume.json shape.
type SubsumeReport struct {
	Benchmark     string       `json:"benchmark"`
	Mode          string       `json:"mode"`
	Interleavings int          `json:"interleavings"`
	Baseline      SubsumeRun   `json:"baseline"`
	Runs          []SubsumeRun `json:"runs"`
}

// RunSubsume measures subsumption gains over a DFS slice of the Roshi-3
// space: one table-off baseline, then one run per byte budget. slice <= 0
// uses DefaultSubsumeSlice; empty budgets use DefaultSubsumeBudgets. All
// runs are sequential (Workers: 1) so the subsumed counts are
// deterministic.
func RunSubsume(slice int, budgets []int64) (*SubsumeReport, error) {
	if slice <= 0 {
		slice = DefaultSubsumeSlice
	}
	if len(budgets) == 0 {
		budgets = DefaultSubsumeBudgets
	}
	bug, ok := bugs.ByName("Roshi-3")
	if !ok {
		return nil, fmt.Errorf("bench: Roshi-3 missing from the corpus")
	}
	report := &SubsumeReport{
		Benchmark:     bug.Name,
		Mode:          string(runner.ModeDFS),
		Interleavings: slice,
	}
	baseline, err := subsumeRun(bug, slice, 0)
	if err != nil {
		return nil, err
	}
	baseline.Speedup = 1
	baseline.Reduction = 1
	baseline.IdenticalSignatures = true
	report.Baseline = *baseline
	for _, budget := range budgets {
		run, err := subsumeRun(bug, slice, budget)
		if err != nil {
			return nil, err
		}
		run.Speedup = run.PerSecond / baseline.PerSecond
		if run.Executed > 0 {
			run.Reduction = float64(baseline.Executed) / float64(run.Executed)
		}
		run.IdenticalSignatures = run.SignatureDigest == baseline.SignatureDigest
		report.Runs = append(report.Runs, *run)
	}
	return report, nil
}

func subsumeRun(bug *bugs.Benchmark, slice int, budget int64) (*SubsumeRun, error) {
	scenario, err := bug.Build()
	if err != nil {
		return nil, err
	}
	reg := telemetry.New()
	sigs := make(map[string]struct{})
	start := time.Now()
	res, err := runner.Run(scenario, runner.Config{
		Mode:             runner.ModeDFS,
		Workers:          1,
		MaxInterleavings: slice,
		SubsumptionTable: budget,
		Telemetry:        reg,
		OnOutcome: func(o *runner.Outcome) {
			sigs[runner.OutcomeSignature(o)] = struct{}{}
		},
	})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if res.Explored != slice {
		return nil, fmt.Errorf("bench: subsume budget=%d explored %d, want %d", budget, res.Explored, slice)
	}
	snap := reg.Snapshot()
	return &SubsumeRun{
		BudgetBytes:     budget,
		Explored:        res.Explored,
		Executed:        res.Explored - res.Subsumed,
		Subsumed:        res.Subsumed,
		HeldBytes:       snap.Gauges["runner.subsumption_table_bytes"],
		Seconds:         elapsed.Seconds(),
		PerSecond:       float64(res.Explored) / elapsed.Seconds(),
		SignatureDigest: signatureSetDigest(sigs),
	}, nil
}

// signatureSetDigest hashes the deduplicated signature set in sorted
// order, so the digest is insensitive to both outcome order and how many
// interleavings produced each signature — exactly the invariant
// subsumption guarantees.
func signatureSetDigest(sigs map[string]struct{}) string {
	sorted := make([]string, 0, len(sigs))
	for s := range sigs {
		sorted = append(sorted, s)
	}
	sort.Strings(sorted)
	h := sha256.New()
	for _, s := range sorted {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WriteSubsumeJSON writes the report as indented JSON to path (the CI
// artifact BENCH_subsume.json).
func (r *SubsumeReport) WriteSubsumeJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render prints the report as a human-readable table.
func (r *SubsumeReport) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "state subsumption: %s, %s x %d interleavings\n", r.Benchmark, r.Mode, r.Interleavings)
	fmt.Fprintln(tw, "budget\texecuted\tsubsumed\treduction\tinterleavings/s\tspeedup\tidentical sigs")
	row := func(label string, run SubsumeRun) {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2fx\t%.0f\t%.2fx\t%v\n",
			label, run.Executed, run.Subsumed, run.Reduction,
			run.PerSecond, run.Speedup, run.IdenticalSignatures)
	}
	row("off", r.Baseline)
	for _, run := range r.Runs {
		row(fmt.Sprintf("%dKiB", run.BudgetBytes>>10), run)
	}
	return tw.Flush()
}
