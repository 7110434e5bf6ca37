package runner

import (
	"context"
	"errors"
	"fmt"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/telemetry"
)

// executor applies one interleaving's events to the cluster.
//
// Event semantics during replay:
//   - Update / Observe: apply the RDL op locally; the returned value is
//     recorded as an observation.
//   - SyncSend: capture the sender's sync payload at this instant; the
//     payload travels with the event ID.
//   - SyncExec: apply the payload captured by the paired SyncSend — or,
//     for a standalone sync event (recorded without an explicit send),
//     capture the sender's payload at execution time, modelling a
//     synchronization whose content depends on when it runs.
//
// When a fault injector is attached, it is consulted before every event:
// crash actions roll the target replica back to its durable checkpoint,
// events at (or syncs from) a crashed replica fail with
// fault.ErrReplicaDown, syncs across a partitioned link are dropped and
// recorded in Outcome.DroppedSyncs, and sync payloads may be truncated in
// flight.
type executor struct {
	log     *event.Log
	cluster *replica.Cluster
	// inj, when non-nil, injects scheduled faults into execution.
	inj *fault.Injector
	// sendFor maps each SyncExec ID to its paired SyncSend ID.
	sendFor map[event.ID]event.ID
	built   bool
	// tel (nil when telemetry is off) records stage spans; worker is the
	// pool worker id this executor belongs to.
	tel    *runTelemetry
	worker int
	// sub, when non-nil, is the run's shared state-subsumption table
	// (DESIGN.md §4.12): every subsumeEvery events the executor hashes the
	// execution context and abandons the interleaving with ErrSubsumed
	// when the frontier was already visited via a lexicographically
	// smaller prefix. Shared across every worker of the run.
	sub *subsumeTable
	// contrib memoizes each event ID's additive multiset contribution;
	// rolling is the running digest of the executed prefix, updated O(1)
	// per event in place of the per-depth sort-and-rehash. While
	// subsumption is engaged, rolling equals multisetHash(il[:pos]) at the
	// top of the position loop — the invariant the canon property suite
	// pins.
	contrib map[event.ID]msetDigest
	rolling msetDigest
	// step, when non-nil, observes the cluster after every delivered
	// position (forensic re-execution only; nil on every engine hot path).
	step func(pos int) error
}

func (x *executor) buildPairs() {
	x.sendFor = make(map[event.ID]event.ID)
	for _, pair := range x.log.SyncPairs() {
		x.sendFor[pair[1]] = pair[0]
	}
	x.contrib = make(map[event.ID]msetDigest, x.log.Len())
	for _, id := range x.log.IDs() {
		x.contrib[id] = msetContribution(id)
	}
	x.built = true
}

func (x *executor) execute(ctx context.Context, il interleave.Interleaving, index int) (*Outcome, error) {
	if !x.built {
		x.buildPairs()
	}
	armed := false
	if x.inj != nil {
		injSpan := x.tel.span(telemetry.StageFaultInject, index, x.worker)
		x.inj.Begin(index)
		injSpan.End()
		armed = x.inj.AnyArmed()
		defer x.inj.Finish()
	}
	outcome := &Outcome{
		Index:        index,
		Interleaving: il,
		Observations: make(map[event.ID]string),
		FaultArmed:   armed,
	}
	pending := make(map[event.ID][]byte)
	// Reset the cluster to the genesis checkpoint and replay from event 0,
	// as the paper's engine does (paper §4.3).
	span := x.tel.span(telemetry.StageCheckpointReset, index, x.worker)
	err := x.cluster.Reset()
	span.End()
	if err != nil {
		return nil, err
	}
	// Fault-armed interleavings bypass subsumption both ways: a crash or
	// truncation makes the hashed context wrong, and a fault-free witness
	// would not reproduce the faulted outcome.
	useSub := x.sub != nil && !armed
	x.rolling = msetDigest{}
	for pos := 0; pos < len(il); pos++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if x.step != nil && pos > 0 {
			// Observe the state the previous position left behind (the
			// loop's continue paths — failed ops, dropped syncs — land here
			// too, so every position gets exactly one observation).
			if err := x.step(pos - 1); err != nil {
				return nil, err
			}
		}
		if useSub && pos > 0 {
			// Fold the event the previous iteration delivered (or skipped
			// via a continue path — its ID is part of the prefix either
			// way) into the rolling multiset digest.
			x.rolling.add(x.contrib[il[pos-1]])
			if pos%subsumeEvery == 0 {
				skip, err := x.contextPoint(il, pos, pending, outcome)
				if err != nil {
					return nil, err
				}
				if skip {
					// Frontier already visited via a lexicographically
					// smaller prefix: the rest of this interleaving can only
					// reproduce an outcome an executed interleaving already
					// has (DESIGN.md §4.12). Account the events actually
					// replayed and abandon.
					x.tel.onEvents(pos)
					x.tel.onSubsumed()
					return nil, ErrSubsumed
				}
			}
		}
		id := il[pos]
		ev := x.log.Event(id)
		if x.inj != nil {
			for _, a := range x.inj.At(pos) {
				if a.Kind == fault.ActionCrash {
					if err := x.cluster.ResetNode(a.Replica); err != nil {
						return nil, fmt.Errorf("fault: crash-restore %s: %w", a.Replica, err)
					}
				}
			}
			if x.inj.ReplicaDown(ev.Replica) {
				return nil, fmt.Errorf("event %s: %w", ev, fault.ErrReplicaDown)
			}
		}
		node, err := x.cluster.Node(ev.Replica)
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case event.Update, event.Observe:
			result, err := node.State.Apply(replica.Op{Name: ev.Op, Args: ev.Args})
			if err != nil {
				if errors.Is(err, replica.ErrFailedOp) {
					outcome.FailedOps = append(outcome.FailedOps, id)
					continue
				}
				return nil, fmt.Errorf("event %s: %w", ev, err)
			}
			if result != "" {
				outcome.Observations[id] = result
			}
		case event.SyncSend:
			payload, err := node.State.SyncPayload()
			if err != nil {
				return nil, fmt.Errorf("event %s: %w", ev, err)
			}
			if x.inj != nil {
				payload = x.inj.Payload(pos, payload)
			}
			pending[id] = payload
		case event.SyncExec:
			if x.inj != nil {
				if x.inj.ReplicaDown(ev.From) {
					return nil, fmt.Errorf("event %s: sender: %w", ev, fault.ErrReplicaDown)
				}
				if x.inj.Partitioned(ev.From, ev.Replica) {
					outcome.DroppedSyncs = append(outcome.DroppedSyncs, id)
					continue
				}
			}
			payload, ok := x.payloadFor(id, pending)
			if !ok {
				// Standalone sync: capture the sender's state now.
				sender, err := x.cluster.Node(ev.From)
				if err != nil {
					return nil, err
				}
				payload, err = sender.State.SyncPayload()
				if err != nil {
					return nil, fmt.Errorf("event %s: %w", ev, err)
				}
			}
			if x.inj != nil {
				payload = x.inj.Payload(pos, payload)
			}
			if err := node.State.ApplySync(payload); err != nil {
				if errors.Is(err, replica.ErrFailedOp) {
					outcome.FailedOps = append(outcome.FailedOps, id)
					continue
				}
				return nil, fmt.Errorf("event %s: %w", ev, err)
			}
		default:
			return nil, fmt.Errorf("event %s: unsupported kind", ev)
		}
	}
	if x.step != nil && len(il) > 0 {
		if err := x.step(len(il) - 1); err != nil {
			return nil, err
		}
	}
	x.tel.onEvents(len(il))
	outcome.Fingerprints = x.cluster.Fingerprints()
	outcome.Converged = x.cluster.Converged()
	return outcome, nil
}

// contextPoint runs the subsumption check at one depth: hash the
// execution context after il[:depth] and consult the shared frontier
// table. skip=true means the interleaving is subsumed.
func (x *executor) contextPoint(il interleave.Interleaving, depth int, pending map[event.ID][]byte, outcome *Outcome) (skip bool, err error) {
	states, err := x.cluster.CanonicalSnapshot()
	if err != nil {
		return false, err
	}
	x.tel.onSnapshotWork(states.Dirty, states.Reused)
	ctxHash := contextHash(states, pending, outcome.Observations, outcome.FailedOps)
	// x.rolling is multisetHash(il[:depth]) by the loop invariant — the
	// O(1)-maintained replacement for the per-depth sort-and-rehash.
	skip, delta := x.sub.visit(ctxHash, x.rolling, il[:depth])
	x.tel.onSubsumeBytes(delta)
	return skip, nil
}

func (x *executor) payloadFor(execID event.ID, pending map[event.ID][]byte) ([]byte, bool) {
	sendID, ok := x.sendFor[execID]
	if !ok {
		return nil, false
	}
	payload, ok := pending[sendID]
	return payload, ok
}
