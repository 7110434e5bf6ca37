package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/coordinator"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Observability benchmark: what telemetry and fleet federation cost. The
// same DFS slice runs locally with no registry and with one attached, then
// through a real coordinator with two TCP workers — first silent, then
// with every worker reporting metrics, progress, and span deltas on a
// tight federation interval. Telemetry is sold as strictly observational,
// so this report is the standing receipt: each instrumented run's overhead
// against its uninstrumented twin, expected within a few percent.

// DefaultObsSlice is how many DFS interleavings each observability run
// replays.
const DefaultObsSlice = 192

// ObsRun is one configuration's measurement.
type ObsRun struct {
	// Config names the configuration: local-plain, local-telemetry,
	// dist-plain, dist-federated.
	Config    string  `json:"config"`
	Explored  int     `json:"explored"`
	Seconds   float64 `json:"seconds"`
	PerSecond float64 `json:"interleavings_per_second"`
	// OverheadPct is the wall-clock overhead against the configuration's
	// uninstrumented twin (0 for the twins themselves).
	OverheadPct float64 `json:"overhead_pct"`
	// Workers is how many worker feeds the coordinator's federation folded
	// (dist-federated only).
	Workers int `json:"federated_workers,omitempty"`
	// Spans is how many spans the fleet trace retained (dist-federated
	// only).
	Spans int `json:"federated_spans,omitempty"`
}

// ObsReport is the BENCH_obs.json shape.
type ObsReport struct {
	Benchmark     string   `json:"benchmark"`
	Mode          string   `json:"mode"`
	Interleavings int      `json:"interleavings"`
	Runs          []ObsRun `json:"runs"`
}

// RunObs measures telemetry and federation overhead over a DFS slice of
// the Roshi-3 space. slice <= 0 uses DefaultObsSlice.
func RunObs(slice int) (*ObsReport, error) {
	if slice <= 0 {
		slice = DefaultObsSlice
	}
	bug, ok := bugs.ByName("Roshi-3")
	if !ok {
		return nil, fmt.Errorf("bench: Roshi-3 missing from the corpus")
	}
	report := &ObsReport{
		Benchmark:     bug.Name,
		Mode:          string(runner.ModeDFS),
		Interleavings: slice,
	}

	// Local engine: no registry vs a live registry.
	plain, err := runObsLocal(bug, slice, nil)
	if err != nil {
		return nil, err
	}
	plain.Config = "local-plain"
	instrumented, err := runObsLocal(bug, slice, telemetry.New())
	if err != nil {
		return nil, err
	}
	instrumented.Config = "local-telemetry"
	instrumented.OverheadPct = overheadPct(plain.Seconds, instrumented.Seconds)
	report.Runs = append(report.Runs, *plain, *instrumented)

	// Distributed engine: two silent workers vs two federating workers.
	spec := coordinator.JobSpec{
		Bug:              bug.Name,
		Mode:             string(runner.ModeDFS),
		MaxInterleavings: slice,
		RangeSize:        32,
	}
	silent, err := runObsDist(spec, 2, false)
	if err != nil {
		return nil, err
	}
	silent.Config = "dist-plain"
	federated, err := runObsDist(spec, 2, true)
	if err != nil {
		return nil, err
	}
	federated.Config = "dist-federated"
	federated.OverheadPct = overheadPct(silent.Seconds, federated.Seconds)
	report.Runs = append(report.Runs, *silent, *federated)
	return report, nil
}

// runObsLocal replays the slice through a one-worker pool, with or
// without a telemetry registry attached.
func runObsLocal(bug *bugs.Benchmark, slice int, reg *telemetry.Registry) (*ObsRun, error) {
	scenario, err := bug.Build()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := runner.Run(scenario, runner.Config{
		Mode:             runner.ModeDFS,
		MaxInterleavings: slice,
		Workers:          1,
		Telemetry:        reg,
	})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if res.Explored != slice {
		return nil, fmt.Errorf("bench: obs local explored %d, want %d", res.Explored, slice)
	}
	return &ObsRun{
		Explored:  res.Explored,
		Seconds:   elapsed.Seconds(),
		PerSecond: float64(res.Explored) / elapsed.Seconds(),
	}, nil
}

// runObsDist drives one job through a fresh coordinator with n in-process
// TCP workers. With federate set, the coordinator carries a registry and
// every worker reports its own registry on a tight interval, so the run
// exercises the full telemetry message path.
func runObsDist(spec coordinator.JobSpec, n int, federate bool) (*ObsRun, error) {
	root, err := os.MkdirTemp("", "erpi-bench-obs-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	opts := coordinator.Options{
		Addr:        "127.0.0.1:0",
		JournalRoot: root,
		LeaseTTL:    2 * time.Second,
	}
	if federate {
		opts.Telemetry = telemetry.New()
	}
	svc, err := coordinator.New(opts)
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	start := time.Now()
	job, err := svc.Submit(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wo := coordinator.WorkerOptions{
				Addr: svc.Addr(),
				Name: fmt.Sprintf("obs-%d", i),
				Once: true,
			}
			if federate {
				wo.Telemetry = telemetry.New()
				wo.TelemetryInterval = 25 * time.Millisecond
			}
			_ = coordinator.RunWorker(ctx, wo)
		}(i)
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		return nil, fmt.Errorf("bench: obs workers=%d timed out (%+v)", n, job.Status())
	}
	elapsed := time.Since(start)
	// Once-workers exit on their own after msgDone; waiting for them (rather
	// than cancelling first) lets their final forced reports land, so the
	// federation accounts every executed range and span.
	wg.Wait()
	cancel()

	st := job.Status()
	if st.State != coordinator.StateDone {
		return nil, fmt.Errorf("bench: obs workers=%d ended %s: %s", n, st.State, st.Error)
	}
	if st.Explored != spec.MaxInterleavings {
		return nil, fmt.Errorf("bench: obs workers=%d explored %d, want %d", n, st.Explored, spec.MaxInterleavings)
	}
	run := &ObsRun{
		Explored:  st.Explored,
		Seconds:   elapsed.Seconds(),
		PerSecond: float64(st.Explored) / elapsed.Seconds(),
	}
	if federate {
		fed := svc.Federation()
		run.Workers = fed.Workers()
		if run.Workers != n {
			return nil, fmt.Errorf("bench: federation folded %d worker feeds, want %d", run.Workers, n)
		}
		for _, row := range fed.Progress().Workers {
			run.Spans += row.SpansRetained
		}
		if run.Spans == 0 {
			return nil, fmt.Errorf("bench: obs workers=%d federation retained no spans", n)
		}
	}
	return run, nil
}

// overheadPct is the wall-clock overhead of an instrumented run against
// its uninstrumented twin, in percent.
func overheadPct(base, instrumented float64) float64 {
	if base <= 0 {
		return 0
	}
	return (instrumented/base - 1) * 100
}

// WriteObsJSON writes the report as indented JSON to path (the CI
// artifact BENCH_obs.json).
func (r *ObsReport) WriteObsJSON(path string) error {
	return writeJSON(r, path)
}

// Render prints the report as a human-readable table.
func (r *ObsReport) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "observability overhead: %s, %s x %d interleavings\n", r.Benchmark, r.Mode, r.Interleavings)
	fmt.Fprintln(tw, "config\tinterleavings/s\toverhead\tfeeds\tspans")
	for _, run := range r.Runs {
		feeds, spans := "-", "-"
		if run.Workers > 0 {
			feeds = fmt.Sprintf("%d", run.Workers)
			spans = fmt.Sprintf("%d", run.Spans)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%+.1f%%\t%s\t%s\n", run.Config, run.PerSecond, run.OverheadPct, feeds, spans)
	}
	return tw.Flush()
}
