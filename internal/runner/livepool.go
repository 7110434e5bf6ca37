package runner

import (
	"context"
	"fmt"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/proxy"
)

// This file is the live replay path's worker for the pool in pool.go:
// the coordinator, worker loop, and retry policy are the checkpointed
// path's, so every ordering guarantee documented there carries over, and
// only one attempt differs — each worker drives executeLive instead of
// the checkpointed executor, running one goroutine per replica under a
// gate session of its own.
//
// Isolation between concurrent sessions comes from the session, not the
// engine: a LiveGates implementation must hand every session a fresh
// fenced namespace (proxy.DistPool mints sess/<worker>/<epoch> lock keys,
// so a stale WaitTurn or Advance from a cancelled attempt can never order
// the next attempt's events), and the default in-process factory simply
// builds a new LocalGate per session.

// LiveSession is one execution attempt's gate namespace: Gate mints the
// TurnGate for a replica, and Close releases whatever the session still
// holds (armed mutexes, counters). Sessions are single-use.
type LiveSession interface {
	Gate(rep event.ReplicaID) (proxy.TurnGate, error)
	Close() error
}

// SessionFactory mints the gate sessions for one live worker. Each call
// returns the next session, fenced from all of the worker's previous
// ones: nothing a cancelled earlier session still does may be visible to
// it.
type SessionFactory func() (LiveSession, error)

// LiveGates builds the per-worker session factories for the live pool
// (Config.LiveGates). Nil defaults to in-process LocalGate sessions.
type LiveGates func(worker int) (SessionFactory, error)

// localSession is the default in-process session: one LocalGate shared by
// all replicas, isolation by construction (nothing outlives the value).
type localSession struct {
	gate *proxy.LocalGate
}

func (s localSession) Gate(event.ReplicaID) (proxy.TurnGate, error) { return s.gate, nil }
func (s localSession) Close() error                                 { return nil }

func localSessions(int) (SessionFactory, error) {
	return func() (LiveSession, error) {
		return localSession{gate: proxy.NewLocalGate()}, nil
	}, nil
}

// liveWorker is the live path's worker setup: a private fault injector
// and a gate-session factory in place of a private cluster — executeLive
// builds its cluster per attempt. Every attempt runs under a fresh
// session, which is what makes retrying safe at all: a failed attempt may
// leave stale goroutines wedged inside WaitTurn until their context dies,
// and fencing means the retry cannot hear them.
func (p *pool) liveWorker(w int) (attemptFunc, error) {
	inj, err := newInjector(p.cfg, p.tel)
	if err != nil {
		return nil, err
	}
	gatesFor := p.cfg.LiveGates
	if gatesFor == nil {
		gatesFor = localSessions
	}
	sessions, err := gatesFor(w)
	if err != nil {
		return nil, fmt.Errorf("runner: live gates for worker %d: %w", w, err)
	}
	return func(ctx context.Context, item workItem) (*Outcome, error) {
		ctx, cancel := attemptContext(ctx, p.cfg)
		defer cancel()
		sess, err := sessions()
		if err != nil {
			return nil, fmt.Errorf("live session: %w", err)
		}
		p.tel.onLiveSession(1)
		defer func() {
			_ = sess.Close()
			p.tel.onLiveSession(-1)
		}()
		return executeLive(ctx, p.s, item.il, item.index, w, sess.Gate, inj, p.tel.registry())
	}, nil
}
