package runner

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
)

// This file is the exported execution facade: the exact worker-side stack
// the pool engine runs (private cluster, injector clone, subsumption
// table, retry-with-seeded-jitter) packaged so out-of-process callers —
// the distributed coordinator's workers foremost — execute interleavings
// with byte-identical semantics to an in-process Workers=N run. The
// pool's checkpointed workers build their environments through the same
// newWorkerEnv and retry through the same executeWithRetry, so there is
// one definition of "execute an interleaving" in the codebase.

// normalizeRetry applies Config's documented retry defaults in place:
// MaxRetries 0 means one retry, negative disables; RetryBackoff defaults
// to 1ms. RunContext and NewExecutor share it so a standalone executor
// retries exactly like the engines.
func normalizeRetry(cfg *Config) {
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = 1
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = time.Millisecond
	}
}

// newInjector clones the run's fault schedule into a private injector
// (instrumented when telemetry is on); nil without a schedule.
func newInjector(cfg Config, tel *runTelemetry) (*fault.Injector, error) {
	if cfg.Faults == nil {
		return nil, nil
	}
	inj, err := fault.NewInjector(*cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}
	tel.instrument(inj)
	return inj, nil
}

// newJitter is worker w's seeded retry-jitter generator: retry timing
// varies across workers, but which interleavings run and what they
// compute never depends on it.
func newJitter(seed int64, w int) *rand.Rand {
	if w == 0 {
		return rand.New(rand.NewSource(seed ^ 0x5deece66d))
	}
	return rand.New(rand.NewSource(seed ^ 0x5deece66d ^ int64(w+1)<<32))
}

// newWorkerEnv builds one worker's private checkpointed execution
// environment: fault injector, fresh cluster checkpointed at genesis, and
// executor. sub is the run's shared subsumption table (nil when
// disabled). Shared by every pool worker and the exported Executor
// facade.
func newWorkerEnv(s Scenario, cfg Config, w int, tel *runTelemetry, sub *subsumeTable) (*executor, error) {
	inj, err := newInjector(cfg, tel)
	if err != nil {
		return nil, err
	}
	cluster, err := s.NewCluster()
	if err != nil {
		return nil, fmt.Errorf("runner: cluster setup: %w", err)
	}
	if err := cluster.Checkpoint(); err != nil {
		return nil, err
	}
	return &executor{log: s.Log, cluster: cluster, inj: inj, tel: tel, worker: w, sub: sub}, nil
}

// Executor replays individual interleavings of one scenario with the full
// engine semantics: genesis checkpoint reset, fault injection, Finalize,
// and retry-with-backoff. It is the unit a distributed worker runs per
// leased range. Not safe for concurrent use;
// build one per goroutine.
type Executor struct {
	cfg     Config
	tel     *runTelemetry
	jit     *rand.Rand
	attempt attemptFunc
}

// NewExecutor builds a standalone interleaving executor for the scenario.
// Honored Config fields: Seed, Faults, MaxRetries, RetryBackoff,
// InterleavingTimeout, SubsumptionTable (with Mode gating it,
// lexicographic modes only), Telemetry. With SubsumptionTable > 0 the
// executor keeps a private visited-frontier table across Execute calls
// and returns ErrSubsumed for skipped interleavings — a distributed
// worker's per-process equivalent of the engines' shared table.
func NewExecutor(s Scenario, cfg Config) (*Executor, error) {
	if s.Log == nil || s.Log.Len() == 0 {
		return nil, fmt.Errorf("runner: scenario has no events")
	}
	if s.NewCluster == nil {
		return nil, fmt.Errorf("runner: scenario has no cluster factory")
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("runner: %w", err)
		}
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeERPi
	}
	normalizeRetry(&cfg)
	tel := newRunTelemetry(cfg.Telemetry)
	exec, err := newWorkerEnv(s, cfg, 0, tel, newSubsumption(cfg))
	if err != nil {
		return nil, err
	}
	attempt := func(ctx context.Context, item workItem) (*Outcome, error) {
		return executeAttempt(ctx, exec, s, cfg, item.il, item.index)
	}
	return &Executor{cfg: cfg, tel: tel, jit: newJitter(cfg.Seed, 0), attempt: attempt}, nil
}

// Execute replays one interleaving at the given global exploration index
// (the index keys deterministic fault arming, so distributed workers must
// pass the coordinator-assigned index, not a local counter). It returns
// the outcome, the number of attempts made, and the final error when every
// attempt failed — the same triple the engines quarantine on. With
// Telemetry attached, each call counts toward runner.explored and the
// progress snapshot, mirroring the engines' per-index accounting — this
// is what a distributed worker's federation reports are built from.
func (e *Executor) Execute(ctx context.Context, il interleave.Interleaving, index int) (*Outcome, int, error) {
	e.tel.onExplored()
	return executeWithRetry(ctx, e.cfg, e.tel, e.jit, workItem{index: index, il: il}, e.attempt)
}

// NewExplorer builds the exploration iterator the engine would use for
// this scenario and config (mode, seed, pruning). The distributed
// coordinator enumerates through it exactly as the in-process engines do,
// which is what keeps range carving deterministic across restarts.
func NewExplorer(s Scenario, cfg Config) (interleave.Explorer, error) {
	if cfg.Mode == "" {
		cfg.Mode = ModeERPi
	}
	return newExplorer(s, cfg, s.Pruning)
}
