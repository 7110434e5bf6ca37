package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/er-pi/erpi/internal/coordinator"
	"github.com/er-pi/erpi/internal/runner"
)

// Distributed exploration benchmark: the same DFS slice run once through
// the sequential in-process engine and then through a real coordinator
// with N in-process TCP workers. Beyond throughput, the run is a standing
// determinism check — every distributed digest must be byte-identical to
// the sequential one, or the report errors out.

// DefaultDistSlice is how many DFS interleavings each distributed run
// explores.
const DefaultDistSlice = 384

// DistRun is one worker-count measurement.
type DistRun struct {
	Workers   int     `json:"workers"`
	Explored  int     `json:"explored"`
	Seconds   float64 `json:"seconds"`
	PerSecond float64 `json:"interleavings_per_second"`
	// Speedup is the throughput ratio against the sequential in-process
	// run (coordination overhead makes workers=1 land below 1.0).
	Speedup float64 `json:"speedup_vs_sequential"`
	// Requeues counts orphaned ranges re-leased during the run (expected
	// 0 in a benchmark: nothing crashes here).
	Requeues int `json:"requeues"`
	// DigestMatch records the byte-identity check against the sequential
	// digest; RunDist fails hard when false, so a written report always
	// says true.
	DigestMatch bool `json:"digest_match"`
}

// DistReport is the BENCH_dist.json shape.
type DistReport struct {
	Benchmark     string    `json:"benchmark"`
	Mode          string    `json:"mode"`
	Interleavings int       `json:"interleavings"`
	RangeSize     int       `json:"range_size"`
	Digest        string    `json:"digest"`
	SeqSeconds    float64   `json:"sequential_seconds"`
	Runs          []DistRun `json:"runs"`
}

// RunDist measures coordinator throughput at each worker count (default
// 1/2/4) over a DFS slice of the Roshi-3 space, pinning every run's
// outcome digest against a one-worker in-process run. slice <= 0 uses
// DefaultDistSlice.
func RunDist(slice int, workers []int) (*DistReport, error) {
	if slice <= 0 {
		slice = DefaultDistSlice
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4}
	}
	spec := coordinator.JobSpec{
		Bug:              "Roshi-3",
		Mode:             string(runner.ModeDFS),
		MaxInterleavings: slice,
		RangeSize:        32,
	}

	// Sequential ground truth: the same slice through the one-worker
	// in-process engine, digesting outcomes as they stream.
	scenario, _, err := spec.Build()
	if err != nil {
		return nil, err
	}
	d := coordinator.NewDigest()
	seqStart := time.Now()
	res, err := runner.Run(scenario, runner.Config{
		Mode:             runner.ModeDFS,
		MaxInterleavings: slice,
		Workers:          1,
		OnOutcome:        d.Observe,
	})
	if err != nil {
		return nil, err
	}
	seqElapsed := time.Since(seqStart)
	report := &DistReport{
		Benchmark:     spec.Bug,
		Mode:          spec.Mode,
		Interleavings: res.Explored,
		RangeSize:     spec.RangeSize,
		Digest:        d.Sum(),
		SeqSeconds:    seqElapsed.Seconds(),
	}
	seqPerSec := float64(res.Explored) / seqElapsed.Seconds()

	for _, w := range workers {
		run, err := runDistOnce(spec, w, res.Explored, report.Digest)
		if err != nil {
			return nil, err
		}
		run.Speedup = run.PerSecond / seqPerSec
		report.Runs = append(report.Runs, *run)
	}
	return report, nil
}

// runDistOnce stands up a fresh coordinator (ephemeral port, throwaway
// journal root, heartbeat-only liveness) and drives one job to completion
// with n in-process TCP workers.
func runDistOnce(spec coordinator.JobSpec, n, wantExplored int, wantDigest string) (*DistRun, error) {
	root, err := os.MkdirTemp("", "erpi-bench-dist-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	svc, err := coordinator.New(coordinator.Options{
		Addr:        "127.0.0.1:0",
		JournalRoot: root,
		LeaseTTL:    2 * time.Second,
	})
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
			_ = coordinator.RunWorker(ctx, coordinator.WorkerOptions{
				Addr: svc.Addr(),
				Name: fmt.Sprintf("bench-%d", i),
				Once: true,
			})
		}(i)
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		return nil, fmt.Errorf("bench: dist workers=%d timed out (%+v)", n, job.Status())
	}
	elapsed := time.Since(start)
	cancel()
	wg.Wait()

	st := job.Status()
	if st.State != coordinator.StateDone {
		return nil, fmt.Errorf("bench: dist workers=%d ended %s: %s", n, st.State, st.Error)
	}
	if st.Explored != wantExplored {
		return nil, fmt.Errorf("bench: dist workers=%d explored %d, want %d", n, st.Explored, wantExplored)
	}
	if st.Digest != wantDigest {
		return nil, fmt.Errorf("bench: dist workers=%d digest %s diverged from sequential %s", n, st.Digest, wantDigest)
	}
	return &DistRun{
		Workers:     n,
		Explored:    st.Explored,
		Seconds:     elapsed.Seconds(),
		PerSecond:   float64(st.Explored) / elapsed.Seconds(),
		Requeues:    st.Requeues,
		DigestMatch: true,
	}, nil
}

// WriteDistJSON writes the report as indented JSON to path (the CI
// artifact BENCH_dist.json).
func (r *DistReport) WriteDistJSON(path string) error {
	return writeJSON(r, path)
}

// Render prints the report as a human-readable table.
func (r *DistReport) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "distributed exploration: %s, %s x %d interleavings (range size %d)\n",
		r.Benchmark, r.Mode, r.Interleavings, r.RangeSize)
	fmt.Fprintf(tw, "sequential baseline: %.2fs, digest %.12s…\n", r.SeqSeconds, r.Digest)
	fmt.Fprintln(tw, "workers\tinterleavings/s\tspeedup\tdigest")
	for _, run := range r.Runs {
		fmt.Fprintf(tw, "%d\t%.0f\t%.2fx\tmatch\n", run.Workers, run.PerSecond, run.Speedup)
	}
	return tw.Flush()
}
