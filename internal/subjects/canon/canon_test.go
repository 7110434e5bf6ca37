// Package canon audits snapshot canonicality across every evaluation
// subject: the state-subsumption pruning layer hashes canonical cluster
// snapshots, so two replicas in the same logical state MUST serialize to
// identical bytes, and a Restore(Snapshot()) round trip must be a byte
// fixpoint. A subject that leaks incidental state (map iteration order,
// arrival counters nothing reads) into its snapshot would silently
// disable subsumption — equal frontiers would never hash equal — without
// failing any behavioral test. This suite pins the encoding itself: the
// snapshots here, the sync payloads in wire_test.go.
package canon

import (
	"bytes"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/subjects/crdts"
	"github.com/er-pi/erpi/internal/subjects/orbit"
	"github.com/er-pi/erpi/internal/subjects/replicadb"
	"github.com/er-pi/erpi/internal/subjects/roshi"
	"github.com/er-pi/erpi/internal/subjects/yorkie"
)

func snap(t *testing.T, s replica.State) []byte {
	t.Helper()
	data, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return data
}

func apply(t *testing.T, s replica.State, name string, args ...string) {
	t.Helper()
	if _, err := s.Apply(replica.Op{Name: name, Args: args}); err != nil {
		t.Fatalf("%s(%v): %v", name, args, err)
	}
}

func syncInto(t *testing.T, dst, src replica.State) {
	t.Helper()
	payload, err := src.SyncPayload()
	if err != nil {
		t.Fatalf("SyncPayload: %v", err)
	}
	if err := dst.ApplySync(payload); err != nil {
		t.Fatalf("ApplySync: %v", err)
	}
}

// canonCase builds the same logical state two ways (different op or sync
// arrival orders) plus a fresh zero-state instance for round trips.
type canonCase struct {
	name  string
	a, b  func(t *testing.T) replica.State
	fresh func() replica.State
}

// checkCanonical runs the three properties on one construction:
//
//  1. determinism: Snapshot() twice on one instance is byte-identical;
//  2. round trip: Snapshot → Restore (fresh instance) → Snapshot is a
//     byte fixpoint;
//  3. canonicality: both constructions of the logical state — and their
//     restored copies — snapshot to identical bytes.
func checkCanonical(t *testing.T, c canonCase) {
	x, y := c.a(t), c.b(t)
	if fx, fy := x.Fingerprint(), y.Fingerprint(); fx != fy {
		t.Fatalf("constructions disagree on logical state:\n a: %s\n b: %s", fx, fy)
	}
	sx := snap(t, x)
	if again := snap(t, x); !bytes.Equal(sx, again) {
		t.Errorf("Snapshot not deterministic:\n 1st: %s\n 2nd: %s", sx, again)
	}
	restored := c.fresh()
	if err := restored.Restore(sx); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if sr := snap(t, restored); !bytes.Equal(sx, sr) {
		t.Errorf("Restore(Snapshot()) not a byte fixpoint:\n before: %s\n after:  %s", sx, sr)
	}
	if sy := snap(t, y); !bytes.Equal(sx, sy) {
		t.Errorf("equal logical states snapshot differently:\n a: %s\n b: %s", sx, sy)
	}
}

// TestSubjectSnapshotsCanonical drives every subject through two arrival
// orders of the same payload set. For the state-based and stamped-op
// subjects the merge is commutative, so both instances are the same
// replica in the same logical state; the snapshots must match bytewise.
func TestSubjectSnapshotsCanonical(t *testing.T) {
	cases := []canonCase{
		{
			name: "crdts",
			a:    func(t *testing.T) replica.State { return crdtsMerged(t, false) },
			b:    func(t *testing.T) replica.State { return crdtsMerged(t, true) },
			fresh: func() replica.State {
				return crdts.New("A", crdts.Flags{})
			},
		},
		{
			name: "roshi",
			a:    func(t *testing.T) replica.State { return roshiApplied(t, false) },
			b:    func(t *testing.T) replica.State { return roshiApplied(t, true) },
			fresh: func() replica.State {
				return roshi.New(roshi.Flags{})
			},
		},
		{
			name: "orbit",
			a:    func(t *testing.T) replica.State { return orbitMerged(t, false) },
			b:    func(t *testing.T) replica.State { return orbitMerged(t, true) },
			fresh: func() replica.State {
				return orbit.New("A", orbit.Flags{})
			},
		},
		{
			name: "yorkie",
			a:    func(t *testing.T) replica.State { return yorkieMerged(t, false) },
			b:    func(t *testing.T) replica.State { return yorkieMerged(t, true) },
			fresh: func() replica.State {
				return yorkie.New("A", yorkie.Flags{})
			},
		},
		{
			// replicadb assigns a local Seq per applied change, so different
			// op orders are genuinely different states; both instances run
			// the identical sequence. Go's randomized map iteration still
			// exercises the table-ordering property across runs.
			name: "replicadb",
			a:    func(t *testing.T) replica.State { return replicadbApplied(t) },
			b:    func(t *testing.T) replica.State { return replicadbApplied(t) },
			fresh: func() replica.State {
				return replicadb.New(replicadb.Flags{})
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkCanonical(t, c) })
	}
}

// crdtsMerged builds replica A after merging payloads from peers B and C
// (state-based sync; merge order must not matter).
func crdtsMerged(t *testing.T, swapped bool) replica.State {
	t.Helper()
	b := crdts.New("B", crdts.Flags{})
	apply(t, b, "todo.create", "write spec")
	apply(t, b, "tag.add", "urgent")
	apply(t, b, "counter.inc", "3")
	apply(t, b, "list.insert", "0", "alpha")
	c := crdts.New("C", crdts.Flags{})
	apply(t, c, "todo.create", "review spec")
	apply(t, c, "tag.add", "later")
	apply(t, c, "counter.dec", "1")
	apply(t, c, "list.insert", "0", "beta")

	a := crdts.New("A", crdts.Flags{})
	if swapped {
		syncInto(t, a, c)
		syncInto(t, a, b)
	} else {
		syncInto(t, a, b)
		syncInto(t, a, c)
	}
	return a
}

// roshiApplied builds a store from one batch of LWW ops applied in two
// different orders (score-based resolution is order-independent).
func roshiApplied(t *testing.T, reversed bool) replica.State {
	t.Helper()
	ops := []replica.Op{
		{Name: "insert", Args: []string{"feed", "track-1", "5"}},
		{Name: "insert", Args: []string{"feed", "track-2", "3"}},
		{Name: "delete", Args: []string{"feed", "track-1", "7"}},
		{Name: "insert", Args: []string{"likes", "track-9", "4"}},
	}
	s := roshi.New(roshi.Flags{})
	if reversed {
		for i := len(ops) - 1; i >= 0; i-- {
			apply(t, s, ops[i].Name, ops[i].Args...)
		}
	} else {
		for _, op := range ops {
			apply(t, s, op.Name, op.Args...)
		}
	}
	return s
}

// orbitMerged builds peer A after joining the DAGs of peers B and C in
// either order (the entry set, not arrival order, is the state).
func orbitMerged(t *testing.T, swapped bool) replica.State {
	t.Helper()
	b := orbit.New("B", orbit.Flags{})
	apply(t, b, "append", "b1")
	apply(t, b, "append", "b2")
	c := orbit.New("C", orbit.Flags{})
	apply(t, c, "append", "c1")

	a := orbit.New("A", orbit.Flags{})
	if swapped {
		syncInto(t, a, c)
		syncInto(t, a, b)
	} else {
		syncInto(t, a, b)
		syncInto(t, a, c)
	}
	return a
}

// yorkieMerged builds doc A after receiving the op logs of docs B and C
// in either order (stamped ops replay by causal order, not arrival).
func yorkieMerged(t *testing.T, swapped bool) replica.State {
	t.Helper()
	b := yorkie.New("B", yorkie.Flags{})
	apply(t, b, "set", "title", "draft")
	apply(t, b, "arrInsert", "0", "x")
	c := yorkie.New("C", yorkie.Flags{})
	apply(t, c, "set", "owner", "carol")
	apply(t, c, "arrInsert", "0", "y")

	a := yorkie.New("A", yorkie.Flags{})
	if swapped {
		syncInto(t, a, c)
		syncInto(t, a, b)
	} else {
		syncInto(t, a, b)
		syncInto(t, a, c)
	}
	return a
}

// replicadbApplied runs a fixed op sequence that leaves rows in source,
// sink, AND the in-flight fetch buffer — all three tables must appear in
// the snapshot in canonical order.
func replicadbApplied(t *testing.T) replica.State {
	t.Helper()
	n := replicadb.New(replicadb.Flags{})
	apply(t, n, "insert", "k1", "v1")
	apply(t, n, "insert", "k3", "v3")
	apply(t, n, "insert", "k2", "v2")
	apply(t, n, "transferComplete")
	apply(t, n, "insert", "k4", "v4")
	apply(t, n, "fetch", "2")
	return n
}

// TestReplicaDBBufferSurvivesRoundTrip pins the behavioral half of the
// replicadb fix: the fetch buffer and its high-water mark are state, so a
// node restored mid-transfer must drain exactly what the original would
// have drained. Before the fix the snapshot dropped both, so a prefix-
// cache restore silently emptied the pipeline.
func TestReplicaDBBufferSurvivesRoundTrip(t *testing.T) {
	n := replicadb.New(replicadb.Flags{})
	apply(t, n, "insert", "k1", "v1")
	apply(t, n, "insert", "k2", "v2")
	apply(t, n, "fetch", "2")

	restored := replicadb.New(replicadb.Flags{})
	if err := restored.Restore(snap(t, n)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := restored.PeakBuffer(), n.PeakBuffer(); got != want {
		t.Errorf("restored peak buffer = %d, want %d", got, want)
	}
	apply(t, n, "drain")
	apply(t, restored, "drain")
	if got, want := restored.Fingerprint(), n.Fingerprint(); got != want {
		t.Errorf("drain after restore diverged:\n restored: %s\n original: %s", got, want)
	}
	if restored.SinkRows() == "" {
		t.Errorf("restored node drained an empty buffer: buffered rows were lost in the snapshot")
	}
}
