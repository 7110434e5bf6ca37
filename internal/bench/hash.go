package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"
	"text/tabwriter"
	"time"

	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Incremental snapshot hashing benchmark (DESIGN.md §4.15). The replay
// hot path fingerprints the cluster at every frontier check — each
// subsumption lookup needs the canonical state digest after il[:depth]. Version-keyed per-replica caches make that
// O(dirty replicas): a frontier check re-serializes only replicas
// mutated since the previous check and composes the digest from cached
// per-replica hashes. This benchmark measures exactly that path with a
// differential design: one "pass" replays a DFS exploration unit — the
// genesis walk of Roshi-3's trigger interleaving with a frontier check
// after every event, then a sibling sweep at the log's tail (restore the
// shared prefix, replay each permutation of the final three events,
// checking every suffix depth) — and the pass is
// timed three ways: replay only (baseline), replay + checks with
// incremental hashing, and replay + checks with full hashing
// (replica.Cluster.SetFullHashing).
// Subtracting the baseline isolates the snapshot+hash cost from apply
// and restore work that both hashing modes pay identically.
//
// The soundness half pins that the optimization is pure mechanics: a
// lockstep pass asserts the two modes produce byte-identical digests at
// every frontier, and two full engine runs (DFS, Workers 1, subsumption
// on) must agree on the deduplicated outcome-signature
// digest, the explored count, and the exact subsumed count — the latter
// is only possible if every context hash matches bit for bit.

// DefaultHashSlice is how many DFS interleavings the engine-parity half
// replays per hashing mode.
const DefaultHashSlice = 512

// hashEngineTableBytes is the subsumption-table budget of the
// engine-parity runs — generous enough that it never evicts on the
// Roshi-3 slice, so the runs check every frontier at full cadence.
const hashEngineTableBytes = 1 << 20

// HashMicro is one timed variant of the replay pass.
type HashMicro struct {
	// Mode is "replay-only", "incremental", or "full".
	Mode      string  `json:"mode"`
	NsPerPass float64 `json:"ns_per_pass"`
	// AllocsPerPass / BytesPerPass come from the Go allocator, per pass.
	AllocsPerPass float64 `json:"allocs_per_pass"`
	BytesPerPass  float64 `json:"bytes_per_pass"`
	// HashNsPerPass etc. are the baseline-subtracted figures: the cost
	// attributable to snapshot+hash alone (zero for the baseline row).
	HashNsPerPass     float64 `json:"hash_ns_per_pass"`
	HashAllocsPerPass float64 `json:"hash_allocs_per_pass"`
	HashBytesPerPass  float64 `json:"hash_bytes_per_pass"`
}

// HashEngine is the end-to-end parity half: identical DFS slices with
// incremental hashing on and off must be observationally identical.
type HashEngine struct {
	Interleavings      int     `json:"interleavings"`
	IncrementalSeconds float64 `json:"incremental_seconds"`
	FullSeconds        float64 `json:"full_seconds"`
	// Speedup is full over incremental wall time for the whole run —
	// diluted by apply/restore/assert work, so it is context, not the
	// headline (the micro figures isolate the hash path).
	Speedup float64 `json:"speedup"`
	// DirtyReplicas / BytesReused are the incremental run's
	// snapshot.dirty_replicas and snapshot.bytes_reused counters;
	// FullDirtyReplicas is what the same slice re-serialized with the
	// caches disabled.
	DirtyReplicas     int64 `json:"dirty_replicas"`
	FullDirtyReplicas int64 `json:"full_dirty_replicas"`
	BytesReused       int64 `json:"bytes_reused"`
	// SerializeReduction is FullDirtyReplicas / DirtyReplicas — how many
	// times fewer replica serializations the incremental path performed.
	SerializeReduction float64 `json:"serialize_reduction"`
	// The determinism pins: equal signature sets, explored counts, and
	// (Workers 1, so the skip set is deterministic) subsumed counts.
	IdenticalSignatures bool   `json:"identical_signatures"`
	ExploredParity      bool   `json:"explored_parity"`
	SubsumedParity      bool   `json:"subsumed_parity"`
	Subsumed            int    `json:"subsumed"`
	SignatureDigest     string `json:"signature_digest"`
}

// HashReport is the BENCH_hash.json shape.
type HashReport struct {
	Benchmark string `json:"benchmark"`
	Replicas  int    `json:"replicas"`
	Events    int    `json:"events"`
	// FrontierChecks is how many snapshot+hash points one pass contains.
	FrontierChecks int        `json:"frontier_checks_per_pass"`
	Baseline       HashMicro  `json:"baseline"`
	Incremental    HashMicro  `json:"incremental"`
	Full           HashMicro  `json:"full"`
	TimeReduction  float64    `json:"time_reduction"`
	AllocReduction float64    `json:"alloc_reduction"`
	Engine         HashEngine `json:"engine"`
}

// hashSink defeats dead-code elimination of the benchmarked digests.
var hashSink byte

// tailPerms enumerates the orders of a 3-event tail; the first is the
// trigger's own order (walked from genesis), the rest are the siblings
// DFS enumerates off the shared depth-(n-3) prefix.
var tailPerms = [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// hashReplayer replays trigger interleavings of a scenario log at the
// replica layer, with the executor's delivery semantics (update/observe
// apply, sync-send payload capture, sync-exec delivery, failed ops skip).
type hashReplayer struct {
	cluster *replica.Cluster
	log     *event.Log
	sendFor map[event.ID]event.ID
	pending map[event.ID][]byte
}

func newHashReplayer(cluster *replica.Cluster, log *event.Log) *hashReplayer {
	r := &hashReplayer{
		cluster: cluster,
		log:     log,
		sendFor: make(map[event.ID]event.ID),
		pending: make(map[event.ID][]byte),
	}
	for _, pair := range log.SyncPairs() {
		r.sendFor[pair[1]] = pair[0]
	}
	return r
}

func (r *hashReplayer) deliver(id event.ID) error {
	ev := r.log.Event(id)
	node, err := r.cluster.Node(ev.Replica)
	if err != nil {
		return err
	}
	switch ev.Kind {
	case event.Update, event.Observe:
		if _, err := node.State.Apply(replica.Op{Name: ev.Op, Args: ev.Args}); err != nil && !errors.Is(err, replica.ErrFailedOp) {
			return fmt.Errorf("event %s: %w", ev, err)
		}
	case event.SyncSend:
		payload, err := node.State.SyncPayload()
		if err != nil {
			return fmt.Errorf("event %s: %w", ev, err)
		}
		r.pending[id] = payload
	case event.SyncExec:
		payload, ok := r.pending[r.sendFor[id]]
		if !ok {
			sender, err := r.cluster.Node(ev.From)
			if err != nil {
				return err
			}
			if payload, err = sender.State.SyncPayload(); err != nil {
				return fmt.Errorf("event %s: %w", ev, err)
			}
		}
		if err := node.State.ApplySync(payload); err != nil && !errors.Is(err, replica.ErrFailedOp) {
			return fmt.Errorf("event %s: %w", ev, err)
		}
	default:
		return fmt.Errorf("event %s: unsupported kind", ev)
	}
	return nil
}

// check is one frontier check: canonical snapshot plus cluster digest,
// the exact work a subsumption lookup performs per checked depth.
func (r *hashReplayer) check() error {
	snap, err := r.cluster.CanonicalSnapshot()
	if err != nil {
		return err
	}
	h := snap.Hash()
	hashSink ^= h[0]
	return nil
}

// pass replays one DFS exploration unit: the genesis walk of trigger
// with a frontier check after every event, then the tail sibling sweep —
// restore the depth-(n-3) prefix and replay the five remaining
// permutations of the final three events, checking each suffix depth.
// checks=false is the differential baseline (identical replay, no
// snapshot+hash work).
func (r *hashReplayer) pass(trigger []event.ID, checks bool) error {
	if err := r.cluster.Reset(); err != nil {
		return err
	}
	clear(r.pending)
	split := len(trigger) - 3
	var prefix *replica.ClusterSnapshot
	for pos, id := range trigger {
		if pos == split {
			snap, err := r.cluster.CanonicalSnapshot()
			if err != nil {
				return err
			}
			prefix = snap
		}
		if err := r.deliver(id); err != nil {
			return err
		}
		if checks {
			if err := r.check(); err != nil {
				return err
			}
		}
	}
	tail := trigger[split:]
	for _, perm := range tailPerms[1:] {
		if err := r.cluster.RestoreSnapshot(prefix); err != nil {
			return err
		}
		for _, i := range perm {
			if err := r.deliver(tail[i]); err != nil {
				return err
			}
			if checks {
				if err := r.check(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// RunHash measures the incremental snapshot+hash path on Roshi-3: the
// differential micro benchmark (baseline / incremental / full passes),
// the lockstep digest-parity pass, and the engine-level determinism pins.
// slice <= 0 uses DefaultHashSlice for the engine half.
func RunHash(slice int) (*HashReport, error) {
	if slice <= 0 {
		slice = DefaultHashSlice
	}
	bug, ok := bugs.ByName("Roshi-3")
	if !ok {
		return nil, fmt.Errorf("bench: Roshi-3 missing from the corpus")
	}
	scenario, err := bug.Build()
	if err != nil {
		return nil, err
	}
	trigger := bug.Trigger
	if len(trigger) < 4 {
		return nil, fmt.Errorf("bench: %s trigger too short for a tail sweep", bug.Name)
	}
	if err := lockstepDigestParity(scenario, trigger); err != nil {
		return nil, err
	}

	report := &HashReport{
		Benchmark: bug.Name,
		Replicas:  len(scenario.Log.Replicas()),
		Events:    scenario.Log.Len(),
		// Genesis walk checks every depth; the sweep checks the three
		// suffix depths of each of the five sibling permutations.
		FrontierChecks: scenario.Log.Len() + 3*(len(tailPerms)-1),
	}

	measure := func(mode string, full, checks bool) (HashMicro, error) {
		cluster, err := scenario.NewCluster()
		if err != nil {
			return HashMicro{}, err
		}
		cluster.SetFullHashing(full)
		if err := cluster.Checkpoint(); err != nil {
			return HashMicro{}, err
		}
		r := newHashReplayer(cluster, scenario.Log)
		if err := r.pass(trigger, checks); err != nil { // warm caches and pools
			return HashMicro{}, err
		}
		var passErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.pass(trigger, checks); err != nil {
					passErr = err
					b.FailNow()
				}
			}
		})
		if passErr != nil {
			return HashMicro{}, passErr
		}
		return HashMicro{
			Mode:          mode,
			NsPerPass:     float64(res.NsPerOp()),
			AllocsPerPass: float64(res.AllocsPerOp()),
			BytesPerPass:  float64(res.AllocedBytesPerOp()),
		}, nil
	}

	if report.Baseline, err = measure("replay-only", false, false); err != nil {
		return nil, err
	}
	if report.Incremental, err = measure("incremental", false, true); err != nil {
		return nil, err
	}
	if report.Full, err = measure("full", true, true); err != nil {
		return nil, err
	}
	diff := func(m *HashMicro) {
		m.HashNsPerPass = max(m.NsPerPass-report.Baseline.NsPerPass, 0)
		m.HashAllocsPerPass = max(m.AllocsPerPass-report.Baseline.AllocsPerPass, 0)
		m.HashBytesPerPass = max(m.BytesPerPass-report.Baseline.BytesPerPass, 0)
	}
	diff(&report.Incremental)
	diff(&report.Full)
	if report.Incremental.HashNsPerPass > 0 {
		report.TimeReduction = report.Full.HashNsPerPass / report.Incremental.HashNsPerPass
	}
	if report.Incremental.HashAllocsPerPass > 0 {
		report.AllocReduction = report.Full.HashAllocsPerPass / report.Incremental.HashAllocsPerPass
	}

	engine, err := hashEngineParity(bug, slice)
	if err != nil {
		return nil, err
	}
	report.Engine = *engine
	return report, nil
}

// lockstepDigestParity replays the trigger on two clusters — incremental
// and full hashing — asserting byte-identical cluster digests at
// every frontier. This is the soundness pin the micro numbers rest on:
// the two modes race the exact same function.
func lockstepDigestParity(scenario runner.Scenario, trigger []event.ID) error {
	clusters := make([]*replica.Cluster, 2)
	replayers := make([]*hashReplayer, 2)
	for i, full := range []bool{false, true} {
		cluster, err := scenario.NewCluster()
		if err != nil {
			return err
		}
		cluster.SetFullHashing(full)
		if err := cluster.Checkpoint(); err != nil {
			return err
		}
		clusters[i] = cluster
		replayers[i] = newHashReplayer(cluster, scenario.Log)
	}
	for pos, id := range trigger {
		hashes := make([][32]byte, 2)
		for i := range replayers {
			if err := replayers[i].deliver(id); err != nil {
				return err
			}
			snap, err := clusters[i].CanonicalSnapshot()
			if err != nil {
				return err
			}
			hashes[i] = snap.Hash()
		}
		if hashes[0] != hashes[1] {
			return fmt.Errorf("bench: digest parity broken at depth %d: incremental %x vs full %x",
				pos+1, hashes[0][:4], hashes[1][:4])
		}
	}
	return nil
}

// hashEngineParity runs the same DFS slice with incremental hashing on
// and off (Workers 1, subsumption engaged) and pins the
// observational equalities plus the telemetry-visible serialization
// savings.
func hashEngineParity(bug *bugs.Benchmark, slice int) (*HashEngine, error) {
	type engineRun struct {
		res     *runner.Result
		sigs    map[string]struct{}
		snap    telemetry.Snapshot
		elapsed time.Duration
	}
	run := func(full bool) (*engineRun, error) {
		scenario, err := bug.Build()
		if err != nil {
			return nil, err
		}
		if full {
			newCluster := scenario.NewCluster
			scenario.NewCluster = func() (*replica.Cluster, error) {
				c, err := newCluster()
				if err == nil {
					c.SetFullHashing(true)
				}
				return c, err
			}
		}
		reg := telemetry.New()
		sigs := make(map[string]struct{})
		start := time.Now()
		res, err := runner.Run(scenario, runner.Config{
			Mode:             runner.ModeDFS,
			Workers:          1,
			MaxInterleavings: slice,
			SubsumptionTable: hashEngineTableBytes,
			Telemetry:        reg,
			OnOutcome: func(o *runner.Outcome) {
				sigs[runner.OutcomeSignature(o)] = struct{}{}
			},
		})
		if err != nil {
			return nil, err
		}
		return &engineRun{res: res, sigs: sigs, snap: reg.Snapshot(), elapsed: time.Since(start)}, nil
	}
	inc, err := run(false)
	if err != nil {
		return nil, err
	}
	full, err := run(true)
	if err != nil {
		return nil, err
	}
	engine := &HashEngine{
		Interleavings:       slice,
		IncrementalSeconds:  inc.elapsed.Seconds(),
		FullSeconds:         full.elapsed.Seconds(),
		DirtyReplicas:       inc.snap.Counters["snapshot.dirty_replicas"],
		FullDirtyReplicas:   full.snap.Counters["snapshot.dirty_replicas"],
		BytesReused:         inc.snap.Counters["snapshot.bytes_reused"],
		IdenticalSignatures: signatureSetDigest(inc.sigs) == signatureSetDigest(full.sigs),
		ExploredParity:      inc.res.Explored == full.res.Explored,
		SubsumedParity:      inc.res.Subsumed == full.res.Subsumed,
		Subsumed:            inc.res.Subsumed,
		SignatureDigest:     signatureSetDigest(inc.sigs),
	}
	if inc.elapsed > 0 {
		engine.Speedup = full.elapsed.Seconds() / inc.elapsed.Seconds()
	}
	if engine.DirtyReplicas > 0 {
		engine.SerializeReduction = float64(engine.FullDirtyReplicas) / float64(engine.DirtyReplicas)
	}
	if !engine.IdenticalSignatures || !engine.ExploredParity || !engine.SubsumedParity {
		return nil, fmt.Errorf("bench: hashing modes diverged: identical_sigs=%v explored=%v subsumed=%v",
			engine.IdenticalSignatures, engine.ExploredParity, engine.SubsumedParity)
	}
	return engine, nil
}

// WriteHashJSON writes the report as indented JSON to path (the CI
// artifact BENCH_hash.json).
func (r *HashReport) WriteHashJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render prints the report as a human-readable table.
func (r *HashReport) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "incremental snapshot hashing: %s, %d replicas, %d events, %d frontier checks/pass\n",
		r.Benchmark, r.Replicas, r.Events, r.FrontierChecks)
	fmt.Fprintln(tw, "mode\tns/pass\tallocs/pass\thash ns/pass\thash allocs/pass")
	row := func(m HashMicro) {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\n",
			m.Mode, m.NsPerPass, m.AllocsPerPass, m.HashNsPerPass, m.HashAllocsPerPass)
	}
	row(r.Baseline)
	row(r.Incremental)
	row(r.Full)
	fmt.Fprintf(tw, "snapshot+hash time reduction\t%.2fx\n", r.TimeReduction)
	fmt.Fprintf(tw, "hash-path alloc reduction\t%.2fx\n", r.AllocReduction)
	e := r.Engine
	fmt.Fprintf(tw, "engine parity (%d DFS interleavings)\tspeedup %.2fx\tserialize reduction %.2fx\tbytes reused %d\n",
		e.Interleavings, e.Speedup, e.SerializeReduction, e.BytesReused)
	fmt.Fprintf(tw, "determinism pins\tidentical sigs %v\texplored parity %v\tsubsumed parity %v (%d subsumed)\n",
		e.IdenticalSignatures, e.ExploredParity, e.SubsumedParity, e.Subsumed)
	return tw.Flush()
}
