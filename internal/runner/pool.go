package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/er-pi/erpi/internal/datalog"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/telemetry"
)

// This file is the exploration engine. Every run — Workers 1 or 64,
// checkpointed or live — goes through this one pool. Exploration of an
// interleaving space parallelizes cleanly because every interleaving
// executes against a private cluster that is reset to the pristine
// checkpoint first: executing interleaving N is a pure function of
// (event log, interleaving, fault schedule, exploration index), never of
// what ran before it on the same worker.
//
// Topology: the coordinator (the caller's goroutine) owns the explorer,
// the dedup set, the journal, the datalog store, and the Result; workers
// own a private execution environment each (a cluster, executor, and
// fault-injector clone on the checkpointed path; a gate-session factory
// on the live path — see attemptFunc). Interleavings are pulled from the
// explorer in its native order, tagged with a stable 1-based index at
// assignment time, and dispatched over an unbuffered channel; results
// return on a buffered channel and are parked in a reorder buffer until
// every lower index has been processed.
//
// Deterministic regardless of worker count — identical to a plain loop
// that executes the explorer's interleavings one by one in order (the
// tests' referenceRun):
//   - which interleavings execute, their indices, and the journal order;
//   - Outcome delivery order to OnOutcome and to assertions (stateful
//     assertions see the exact in-order history);
//   - Violations, Quarantined, FirstViolation, and — on a completed or
//     StopOnViolation run — Explored;
//   - probabilistic fault arming (keyed by index, not by execution order).
//
// Best-effort (may vary between runs):
//   - Duration, and retry-backoff jitter timing (per-worker generators);
//   - on StopOnViolation, work past the violating index may already have
//     executed; its results are discarded, but journal/store entries for
//     those indices remain (safe over-approximations: a journal key only
//     suppresses re-execution on resume, and store facts are monotone);
//   - on interruption, Explored counts results processed in order before
//     the cancellation was observed, while the explorer may have been
//     pulled further ahead (ModeRand's RandShuffles reflects that
//     ahead-pulling).
//
// ConstraintPoll re-pruning quiesces the pool: the poll boundary index is
// dispatched, the coordinator drains every in-flight execution and
// processes all results, and only then polls and (maybe) regenerates the
// explorer — a barrier, so the poll points are the same at every worker
// count, at the cost of a bubble in the pipeline every PollEvery
// interleavings.
//
// ModeFuzz reuses those quiesce mechanics as its generation barrier
// (DESIGN.md §4.14): the fuzzer synthesizes a whole generation of mutated
// children up front, the pool pipelines them across all workers, and when
// the synthesis buffer drains the coordinator waits for every in-flight
// child to return and classify before letting the corpus evolve — so
// which permutations enter the corpus depends only on the seed and the
// classified signatures, never on worker count or completion order.
type pool struct {
	ctx      context.Context
	s        Scenario
	cfg      Config
	res      *Result
	explorer interleave.Explorer
	explored *exploredSet
	pruning  prune.Config
	maxNew   int
	workers  int

	workCh  chan workItem
	resCh   chan workResult
	fatalCh chan error

	// tel is nil when telemetry is off; all uses are nil-safe.
	tel *runTelemetry
	// sub is the run's shared subsumption table (nil when disabled). It
	// is flushed directly at the re-pruning quiesce barrier, since no
	// execution is in flight while poll() runs.
	sub *subsumeTable
	// nextSince / pollSince anchor the dispatch-wait and quiesce-gap spans
	// (coordinator-only, valid only while tel is non-nil).
	nextSince time.Time
	pollSince time.Time

	// Coordinator-only state (no locking: single goroutine).
	assigned int                // indices handed out; the highest index that exists
	nextProc int                // next index to process in order
	pending  map[int]workResult // reorder buffer: arrived, not yet processed
	inflight int                // dispatched and not yet returned
	next     *workItem          // pulled from the explorer, not yet dispatched
	noMore   bool               // no further assignment (cap/exhausted/crash/halt)
	halted   bool               // stop processing too; drain and discard (stop/interrupt)
	stopViol bool               // halted by StopOnViolation
	pollWait bool               // quiescing for a ConstraintPoll boundary
	pollIdx  int                // the boundary index being drained
	pollSkip bool               // boundary index quarantined: skip this poll
	genWait  bool               // quiescing for a fuzz generation boundary
	genSince time.Time          // when the fuzz barrier armed (tel only)
}

// workItem is one interleaving dispatched to a worker, tagged with the
// stable exploration index assigned by the coordinator.
type workItem struct {
	index int
	il    interleave.Interleaving
}

// workResult is one executed interleaving flowing back to the coordinator.
type workResult struct {
	index    int
	il       interleave.Interleaving
	outcome  *Outcome
	attempts int
	err      error
}

// workerSetup builds worker w's private execution environment and returns
// how that worker runs one attempt; (*pool).checkpointWorker and
// (*pool).liveWorker are the two implementations.
type workerSetup func(p *pool, w int) (attemptFunc, error)

// runPool explores the scenario with a pool of workers, writing into res
// the in-order result described above.
func runPool(ctx context.Context, s Scenario, cfg Config, res *Result, explorer interleave.Explorer, explored *exploredSet, pruning prune.Config, maxNew, workers int, tel *runTelemetry, sub *subsumeTable, setup workerSetup) error {
	wctx, cancelWorkers := context.WithCancel(ctx)
	defer cancelWorkers()
	p := &pool{
		ctx:      ctx,
		s:        s,
		cfg:      cfg,
		res:      res,
		explorer: explorer,
		explored: explored,
		pruning:  pruning,
		maxNew:   maxNew,
		workers:  workers,
		tel:      tel,
		sub:      sub,
		workCh:   make(chan workItem),
		// resCh and fatalCh hold one slot per worker, so workers always
		// send without blocking (each worker has at most one outstanding
		// result) and shutdown can never deadlock.
		resCh:    make(chan workResult, workers),
		fatalCh:  make(chan error, workers),
		pending:  make(map[int]workResult),
		nextProc: 1,
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.worker(wctx, w, setup)
		}(w)
	}
	err := p.coordinate()
	// Shut the pool down on every exit path: cancel in-flight executions,
	// unblock workers waiting for work, and wait for them to finish. The
	// buffered result channel absorbs any final sends.
	cancelWorkers()
	close(p.workCh)
	wg.Wait()
	if err != nil {
		return err
	}
	p.finalize()
	return nil
}

// worker builds its private execution environment and runs interleavings
// through the retry policy until the work channel closes. Setup failures
// are fatal for the whole run; execution failures are per-interleaving
// results.
func (p *pool) worker(ctx context.Context, w int, setup workerSetup) {
	attempt, err := setup(p, w)
	if err != nil {
		p.fatalCh <- err
		return
	}
	jitter := newJitter(p.cfg.Seed, w)
	for item := range p.workCh {
		p.tel.setWorker(w, item.index)
		execSpan := p.tel.span(telemetry.StageExecute, item.index, w)
		outcome, attempts, err := executeWithRetry(ctx, p.cfg, p.tel, jitter, item, attempt)
		execSpan.End()
		p.tel.setWorker(w, 0)
		p.resCh <- workResult{index: item.index, il: item.il, outcome: outcome, attempts: attempts, err: err}
	}
}

// checkpointWorker is the checkpointed path's worker setup: a private
// cluster and executor, reset to genesis before every attempt.
func (p *pool) checkpointWorker(w int) (attemptFunc, error) {
	exec, err := newWorkerEnv(p.s, p.cfg, w, p.tel, p.sub)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, item workItem) (*Outcome, error) {
		return executeAttempt(ctx, exec, p.s, p.cfg, item.il, item.index)
	}, nil
}

// coordinate is the producer + aggregator loop.
func (p *pool) coordinate() error {
	for {
		if !p.noMore && !p.pollWait && !p.genWait && p.next == nil {
			if err := p.pull(); err != nil {
				return err
			}
		}
		if p.pollWait && p.inflight == 0 && p.nextProc > p.assigned {
			// Quiesced: everything assigned is executed and processed.
			if err := p.poll(); err != nil {
				return err
			}
			continue
		}
		if p.genWait && p.inflight == 0 && p.nextProc > p.assigned {
			// Fuzz generation quiesced: every child of the generation is
			// executed, processed, and classified — safe to evolve.
			p.fuzzBarrier()
			continue
		}
		if p.next == nil && p.inflight == 0 {
			// A generation that completed exactly at the cap still
			// evolves (a partial one never does —
			// evolveFuzz guards GenerationEnd and Pending).
			if ge, ok := p.explorer.(generationExplorer); ok {
				p.evolveFuzz(ge)
			}
			return nil // nothing to dispatch, nothing in flight: done
		}
		if p.next != nil {
			select {
			case p.workCh <- *p.next:
				p.dispatched()
			case r := <-p.resCh:
				p.receive(r)
			case err := <-p.fatalCh:
				return err
			}
		} else {
			select {
			case r := <-p.resCh:
				p.receive(r)
			case err := <-p.fatalCh:
				return err
			}
		}
	}
}

// pull advances the explorer to the next fresh interleaving, assigns its
// index, and journals/records it — the in-order prologue of one
// interleaving. It either sets p.next or stops assignment.
func (p *pool) pull() error {
	for {
		if p.assigned >= p.maxNew {
			p.noMore = true
			return nil
		}
		if err := p.ctx.Err(); err != nil {
			p.res.Interrupted = true
			p.res.InterruptErr = err
			p.stop()
			return nil
		}
		if ge, ok := p.explorer.(generationExplorer); ok && ge.GenerationEnd() {
			// Fuzz generation boundary: the synthesis buffer is empty, so
			// the next Next() would evolve the corpus. That is only sound
			// once every emitted child has executed and classified.
			if p.inflight > 0 || p.nextProc <= p.assigned {
				p.genWait = true
				if p.tel != nil {
					p.genSince = time.Now()
				}
				return nil
			}
			p.evolveFuzz(ge)
		}
		genSpan := p.tel.span(telemetry.StageGenerate, p.assigned+1, telemetry.CoordinatorWorker)
		il, ok := p.explorer.Next()
		genSpan.End()
		if !ok {
			p.res.Exhausted = true
			p.noMore = true
			return nil
		}
		key := il.Key()
		dedupSpan := p.tel.span(telemetry.StageDedup, p.assigned+1, telemetry.CoordinatorWorker)
		dup := p.explored.Has(key)
		if !dup && !p.explored.Add(key) {
			p.tel.onDedupSaturated()
		}
		dedupSpan.End()
		if dup {
			p.tel.onDedupSkipped()
			// A resumed/re-pruned key never executes: classify it as
			// yielding no corpus evidence so a fuzz generation can still
			// complete.
			reportDropped(p.explorer, key)
			continue // journal resume, or re-pruning regenerated the explorer
		}
		p.assigned++
		p.tel.onExplored()
		if p.cfg.Journal != nil {
			if err := p.cfg.Journal.AppendExplored(il); err != nil {
				return err
			}
		}
		if p.cfg.Store != nil {
			if err := p.cfg.Store.Record(il); err != nil {
				if errors.Is(err, datalog.ErrBudgetExhausted) {
					// The crashing index counts as explored but never
					// executes.
					p.res.Crashed = true
					p.res.CrashErr = err
					p.noMore = true
					return nil
				}
				return err
			}
		}
		p.next = &workItem{index: p.assigned, il: il}
		if p.tel != nil {
			p.nextSince = time.Now()
		}
		return nil
	}
}

// dispatched notes that p.next went out and arms the poll barrier when
// the index is a poll boundary.
func (p *pool) dispatched() {
	index := p.next.index
	p.next = nil
	p.inflight++
	if p.tel != nil {
		// Dispatch span: how long the pulled interleaving waited for a free
		// worker — back-pressure from a saturated pool shows up here.
		p.tel.observeSpan(telemetry.StageDispatch, index, telemetry.CoordinatorWorker,
			p.nextSince, time.Since(p.nextSince))
	}
	if p.cfg.ConstraintPoll != nil && p.cfg.Mode == ModeERPi && index%p.cfg.PollEvery == 0 {
		p.pollWait = true
		p.pollIdx = index
		if p.tel != nil {
			p.pollSince = time.Now()
		}
	}
}

// receive parks a result in the reorder buffer and processes every result
// that is now next in index order.
func (p *pool) receive(r workResult) {
	p.inflight--
	p.pending[r.index] = r
	for !p.halted {
		// Observing the context's death here is the in-order cut: results
		// already processed stand, later ones are discarded.
		if err := p.ctx.Err(); err != nil {
			p.res.Interrupted = true
			p.res.InterruptErr = err
			p.stop()
			return
		}
		next, ok := p.pending[p.nextProc]
		if !ok {
			return
		}
		delete(p.pending, p.nextProc)
		p.nextProc++
		p.process(next)
	}
}

// process handles one result in index order: quarantine, outcome hooks,
// assertions, and the stop-on-violation decision. It runs only on the
// coordinator, so stateful assertions and OnOutcome observers need no
// locking and see outcomes in exactly the index order.
func (p *pool) process(r workResult) {
	if r.err != nil {
		if p.ctx.Err() != nil {
			// The execution died with the run's context: interruption,
			// not a quarantine.
			p.res.Interrupted = true
			p.res.InterruptErr = p.ctx.Err()
			p.stop()
			return
		}
		if errors.Is(r.err, ErrSubsumed) {
			// Skipped by state subsumption: the index stands (journal,
			// dedup, cap) but there is no outcome to assert on, and a poll
			// boundary it sits on is skipped.
			if p.pollWait && r.index == p.pollIdx {
				p.pollSkip = true
			}
			reportDropped(p.explorer, r.il.Key())
			p.res.Subsumed++
			return
		}
		if p.pollWait && r.index == p.pollIdx {
			// A quarantined boundary interleaving skips its poll too.
			p.pollSkip = true
		}
		reportDropped(p.explorer, r.il.Key())
		p.tel.onQuarantined()
		p.res.Quarantined = append(p.res.Quarantined, ExecError{
			Index:        r.index,
			Interleaving: r.il,
			Attempts:     r.attempts,
			Err:          r.err,
		})
		return
	}
	if p.cfg.OnOutcome != nil {
		p.cfg.OnOutcome(r.outcome)
	}
	reportFeedback(p.explorer, r.il, r.outcome)
	violated := false
	assertSpan := p.tel.span(telemetry.StageAssert, r.index, telemetry.CoordinatorWorker)
	newViolations := 0
	for _, a := range p.cfg.Assertions {
		if err := a.Check(r.outcome); err != nil {
			p.res.Violations = append(p.res.Violations, Violation{
				Index:        r.index,
				Interleaving: r.il,
				Assertion:    a.Name(),
				Err:          err,
			})
			newViolations++
			violated = true
		}
	}
	assertSpan.End()
	p.tel.onViolations(newViolations)
	if violated && p.res.FirstViolation == 0 {
		p.res.FirstViolation = r.index
	}
	if violated {
		// Runs on the coordinator goroutine, in index order, so bundle
		// numbering is deterministic.
		captureForensic(p.s, p.cfg, p.res, r.il, r.index, p.res.Violations)
	}
	if violated && p.cfg.StopOnViolation {
		p.stopViol = true
		p.stop()
	}
}

// stop halts assignment and processing; in-flight work is drained and
// discarded.
func (p *pool) stop() {
	p.noMore = true
	p.halted = true
	p.next = nil
	p.pollWait = false
	p.genWait = false
}

// fuzzBarrier closes one fuzz generation after the pool drained behind it:
// records the quiesce bubble (from arming the barrier to full drain) and
// evolves the corpus. Mirrors poll() for the ConstraintPoll barrier.
func (p *pool) fuzzBarrier() {
	p.genWait = false
	if p.tel != nil {
		p.tel.observeSpan(telemetry.StageQuiesce, p.assigned, telemetry.CoordinatorWorker,
			p.genSince, time.Since(p.genSince))
	}
	ge, ok := p.explorer.(generationExplorer)
	if !ok {
		return
	}
	p.evolveFuzz(ge)
}

// evolveFuzz folds a fully-classified generation into the fuzzer's corpus
// under a StageFuzzEvolve span and publishes the corpus gauges. Children
// that never executed (assignment crashed mid-generation) leave Pending
// non-zero; the corpus must not evolve on partial evidence.
func (p *pool) evolveFuzz(ge generationExplorer) {
	if !ge.GenerationEnd() || ge.Pending() != 0 {
		return
	}
	span := p.tel.span(telemetry.StageFuzzEvolve, p.assigned, telemetry.CoordinatorWorker)
	ge.Evolve()
	span.End()
	p.tel.onFuzzGeneration(ge.Generations(), ge.CorpusSize(), ge.NoveltyRate())
}

// poll runs the quiesced ConstraintPoll and regenerates the explorer over
// the merged pruning config when new constraints arrived. Interleavings
// the regenerated explorer re-yields are skipped by the dedup set.
func (p *pool) poll() error {
	p.pollWait = false
	if p.tel != nil {
		// Quiesce span: from arming the poll barrier at dispatch of the
		// boundary index until the pool fully drained — the pipeline bubble
		// each ConstraintPoll costs, visible as a coordinator-lane gap in
		// the Chrome trace.
		p.tel.observeSpan(telemetry.StageQuiesce, p.pollIdx, telemetry.CoordinatorWorker,
			p.pollSince, time.Since(p.pollSince))
	}
	if p.pollSkip {
		p.pollSkip = false
		return nil
	}
	extra, found, err := p.cfg.ConstraintPoll()
	if err != nil {
		return fmt.Errorf("runner: constraints: %w", err)
	}
	if found {
		p.pruning.Merge(extra)
		repruneSpan := p.tel.span(telemetry.StagePrune, p.pollIdx, telemetry.CoordinatorWorker)
		explorer, err := newExplorer(p.s, p.cfg, p.pruning)
		repruneSpan.End()
		if err != nil {
			return fmt.Errorf("runner: re-pruning: %w", err)
		}
		p.explorer = explorer
		// The quiesce barrier holds (no execution in flight), so the
		// shared subsumption table can be flushed directly.
		if p.sub != nil {
			p.tel.onSubsumeBytes(-p.sub.invalidate())
		}
	}
	return nil
}

// finalize settles the Result's accounting to the in-order view of the
// run.
func (p *pool) finalize() {
	res := p.res
	switch {
	case p.stopViol:
		// The in-order run ends at the first violation: truncate to its
		// horizon and drop flags that only later
		// (discarded) work could have set.
		res.Explored = res.FirstViolation
		res.Exhausted = false
		res.Crashed = false
		res.CrashErr = nil
	case res.Interrupted:
		res.Explored = p.nextProc - 1 // results processed in order
	default:
		res.Explored = p.assigned
	}
	if r, ok := p.explorer.(*interleave.RandExplorer); ok {
		res.RandShuffles = r.Shuffles()
	}
}
