// Package replicadb re-implements the replication core of ReplicaDB
// (evaluation subject 3): bulk data transfer between a source table and a
// sink table, with complete and incremental replication modes and a
// bounded fetch buffer feeding parallel sink writers.
//
// Two seedable defects reproduce the paper's ReplicaDB bug benchmarks:
//
//   - BugUnboundedBuffer (issue #79, "out of memory error"): the fetch
//     path ignores the buffer bound, so interleavings in which fetches
//     outpace sink drains grow the buffer past the memory budget.
//   - BugMissTombstones (issue #23, "deleted records aren't getting
//     deleted from the sink tables"): incremental mode transfers only row
//     upserts, so deletes that land after the snapshot cut never reach
//     the sink.
package replicadb

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/wire"
)

// Flags seed the known defects.
type Flags struct {
	BugUnboundedBuffer bool `json:"bug_unbounded_buffer"`
	BugMissTombstones  bool `json:"bug_miss_tombstones"`
	// NoVersionResolution disables version-based conflict resolution on
	// sync: incoming rows overwrite unconditionally (misconception #1
	// seed — relying on delivery order instead of the resolution step).
	NoVersionResolution bool `json:"no_version_resolution"`
	// BufferLimit is the fetch-buffer budget in rows (default 4).
	BufferLimit int `json:"buffer_limit,omitempty"`
}

// row is one record. Version orders cross-replica upserts (LWW); Seq is
// the local apply order, the basis of incremental snapshot cuts — a row
// adopted from a peer is a NEW local change even though its Version is
// old, so the two counters must be distinct.
type row struct {
	Key     string `json:"key"`
	Value   string `json:"value"`
	Version uint64 `json:"version"`
	Deleted bool   `json:"deleted"`
	Seq     uint64 `json:"seq,omitempty"`
}

// Node is one replica running a ReplicaDB instance: it owns a source
// table, a sink table, and the transfer machinery between them. Sync
// between replicas exchanges source tables (the upstream replication
// path).
type Node struct {
	flags   Flags
	version uint64
	source  map[string]*row
	sink    map[string]*row
	// buffer is the in-flight fetch buffer between source reads and sink
	// writes.
	buffer []*row
	// peakBuffer tracks the high-water mark (the OOM metric of issue #79).
	peakBuffer int
	// seq is the local apply-order counter.
	seq uint64
	// snapshotCut is the Seq bound of the last snapshot-based incremental
	// transfer.
	snapshotCut uint64
	// stateVer counts mutations for snapshot-cache invalidation
	// (replica.Versioned) — distinct from version, which orders LWW row
	// conflicts. readSink/readSource/peakBuffer are pure and leave it
	// untouched.
	stateVer uint64
}

var (
	_ replica.State     = (*Node)(nil)
	_ replica.Versioned = (*Node)(nil)
)

// StateVersion implements replica.Versioned.
func (n *Node) StateVersion() uint64 { return n.stateVer }

// New returns an empty node.
func New(flags Flags) *Node {
	if flags.BufferLimit == 0 {
		flags.BufferLimit = 4
	}
	return &Node{
		flags:  flags,
		source: make(map[string]*row),
		sink:   make(map[string]*row),
	}
}

// Insert upserts a source row.
func (n *Node) Insert(key, value string) {
	n.version++
	n.seq++
	n.source[key] = &row{Key: key, Value: value, Version: n.version, Seq: n.seq}
}

// Delete tombstones a source row; fails when absent.
func (n *Node) Delete(key string) error {
	r, ok := n.source[key]
	if !ok || r.Deleted {
		return replica.ErrFailedOp
	}
	n.version++
	n.seq++
	r.Deleted = true
	r.Version = n.version
	r.Seq = n.seq
	return nil
}

// Fetch moves up to batch source rows into the transfer buffer. With
// BugUnboundedBuffer the buffer bound is ignored; otherwise a fetch that
// would exceed the bound fails (back-pressure).
func (n *Node) Fetch(batch int) error {
	if !n.flags.BugUnboundedBuffer && len(n.buffer)+batch > n.flags.BufferLimit {
		return replica.ErrFailedOp // back-pressure: retry after drain
	}
	rows := n.sourceRows()
	start := 0
	// Naive cursor: refetch from the top is fine for the model; the
	// buffer-growth behaviour is what the defect exercises.
	for i := 0; i < batch && start+i < len(rows); i++ {
		cp := *rows[start+i]
		n.buffer = append(n.buffer, &cp)
	}
	if len(n.buffer) > n.peakBuffer {
		n.peakBuffer = len(n.buffer)
	}
	return nil
}

// Drain writes every buffered row into the sink and empties the buffer.
func (n *Node) Drain() {
	for _, r := range n.buffer {
		n.applySink(r)
	}
	n.buffer = n.buffer[:0]
}

// TransferComplete replicates the full source table (upserts and deletes)
// into the sink.
func (n *Node) TransferComplete() {
	for _, r := range n.source {
		cp := *r
		n.applySink(&cp)
	}
	n.snapshotCut = n.seq
}

// TransferIncremental replicates rows changed since the last snapshot cut.
// With BugMissTombstones, deleted rows are skipped (issue #23).
func (n *Node) TransferIncremental() {
	for _, r := range n.source {
		if r.Seq <= n.snapshotCut {
			continue
		}
		if r.Deleted && n.flags.BugMissTombstones {
			continue // defect: deletes never reach the sink
		}
		cp := *r
		n.applySink(&cp)
	}
	n.snapshotCut = n.seq
}

func (n *Node) applySink(r *row) {
	cur, ok := n.sink[r.Key]
	if ok && cur.Version >= r.Version {
		return
	}
	n.sink[r.Key] = r
}

// PeakBuffer returns the buffer high-water mark.
func (n *Node) PeakBuffer() int { return n.peakBuffer }

// SinkRows renders the live sink contents canonically.
func (n *Node) SinkRows() string { return renderRows(n.sink) }

// SourceRows renders the live source contents canonically.
func (n *Node) SourceRows() string { return renderRows(n.source) }

func (n *Node) sourceRows() []*row {
	out := make([]*row, 0, len(n.source))
	for _, r := range n.source {
		if !r.Deleted {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func renderRows(table map[string]*row) string {
	keys := make([]string, 0, len(table))
	for k, r := range table {
		if !r.Deleted {
			keys = append(keys, k+"="+r.Value)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// Apply implements replica.State. Ops:
//
//	insert(key, value)       upsert a source row
//	delete(key)              tombstone a source row
//	fetch(batch)             buffer rows for transfer
//	drain()                  flush the buffer into the sink
//	transferComplete()       full-table replication
//	transferIncremental()    changed-rows replication
//	readSink()               -> canonical sink contents
//	readSource()             -> canonical source contents
//	peakBuffer()             -> high-water mark of the fetch buffer
func (n *Node) Apply(op replica.Op) (string, error) {
	switch op.Name {
	case "readSink", "readSource", "peakBuffer":
	default:
		n.stateVer++
	}
	switch op.Name {
	case "insert":
		n.Insert(op.Args[0], op.Args[1])
		return "", nil
	case "delete":
		return "", n.Delete(op.Args[0])
	case "fetch":
		batch, err := strconv.Atoi(op.Args[0])
		if err != nil {
			return "", fmt.Errorf("replicadb: bad batch: %w", err)
		}
		return "", n.Fetch(batch)
	case "drain":
		n.Drain()
		return "", nil
	case "transferComplete":
		n.TransferComplete()
		return "", nil
	case "transferIncremental":
		n.TransferIncremental()
		return "", nil
	case "readSink":
		return n.SinkRows(), nil
	case "readSource":
		return n.SourceRows(), nil
	case "peakBuffer":
		return strconv.Itoa(n.peakBuffer), nil
	default:
		return "", fmt.Errorf("replicadb: unknown op %s", op.Name)
	}
}

// syncPayload carries the source table between replicas.
type syncPayload struct {
	Rows    []row
	Version uint64
}

// SyncPayload implements replica.State: the source rows sorted by key,
// then the version counter.
func (n *Node) SyncPayload() ([]byte, error) {
	p := syncPayload{Version: n.version}
	for _, r := range n.source {
		cp := *r
		cp.Seq = 0 // Seq is local apply order; receivers assign their own
		p.Rows = append(p.Rows, cp)
	}
	slices.SortFunc(p.Rows, func(a, b row) int { return strings.Compare(a.Key, b.Key) })
	return p.append(nil), nil
}

// ApplySync implements replica.State: LWW-merge remote source rows.
func (n *Node) ApplySync(payload []byte) error {
	n.stateVer++
	p, err := decodeSync(payload)
	if err != nil {
		return fmt.Errorf("replicadb: sync payload: %w", err)
	}
	for i := range p.Rows {
		r := p.Rows[i]
		cur, ok := n.source[r.Key]
		if n.flags.NoVersionResolution || !ok || cur.Version < r.Version {
			cp := r
			n.seq++
			cp.Seq = n.seq // adopted rows are fresh local changes
			n.source[r.Key] = &cp
		}
	}
	if p.Version > n.version {
		n.version = p.Version
	}
	return nil
}

// append writes the sync wire form (DESIGN.md §4.16): a row count, each
// row's key, value, version and deleted flag, then the version counter.
// Seq is not sent.
func (p syncPayload) append(b []byte) []byte {
	b = wire.AppendUint(b, uint64(len(p.Rows)))
	for _, r := range p.Rows {
		b = wire.AppendString(b, r.Key)
		b = wire.AppendString(b, r.Value)
		b = wire.AppendUint(b, r.Version)
		b = wire.AppendBool(b, r.Deleted)
	}
	return wire.AppendUint(b, p.Version)
}

// decodeSync reads syncPayload.append's form, all of it, or fails.
func decodeSync(payload []byte) (syncPayload, error) {
	r := wire.NewReader(payload)
	var p syncPayload
	if n := r.Count(4); n > 0 {
		p.Rows = make([]row, n)
		for i := range p.Rows {
			p.Rows[i] = row{Key: r.String(), Value: r.String(), Version: r.Uint(), Deleted: r.Bool()}
		}
	}
	p.Version = r.Uint()
	return p, r.Done()
}

type snapshot struct {
	Source      []row  `json:"source"`
	Sink        []row  `json:"sink"`
	Buffer      []row  `json:"buffer,omitempty"`
	PeakBuffer  int    `json:"peak_buffer,omitempty"`
	Version     uint64 `json:"version"`
	Seq         uint64 `json:"seq"`
	SnapshotCut uint64 `json:"snapshot_cut"`
}

// Snapshot implements replica.State. The encoding is canonical: equal
// logical states always serialize to identical bytes (tables sorted by
// key; the buffer keeps its in-flight order, which IS state — Drain
// applies it in order).
func (n *Node) Snapshot() ([]byte, error) {
	snap := snapshot{Version: n.version, Seq: n.seq, SnapshotCut: n.snapshotCut, PeakBuffer: n.peakBuffer}
	for _, r := range n.source {
		snap.Source = append(snap.Source, *r)
	}
	for _, r := range n.sink {
		snap.Sink = append(snap.Sink, *r)
	}
	sort.Slice(snap.Source, func(i, j int) bool { return snap.Source[i].Key < snap.Source[j].Key })
	sort.Slice(snap.Sink, func(i, j int) bool { return snap.Sink[i].Key < snap.Sink[j].Key })
	for _, r := range n.buffer {
		snap.Buffer = append(snap.Buffer, *r)
	}
	return json.Marshal(snap)
}

// Restore implements replica.State.
func (n *Node) Restore(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("replicadb: snapshot: %w", err)
	}
	fresh := New(n.flags)
	fresh.version = snap.Version
	fresh.seq = snap.Seq
	fresh.snapshotCut = snap.SnapshotCut
	fresh.peakBuffer = snap.PeakBuffer
	for i := range snap.Source {
		cp := snap.Source[i]
		fresh.source[cp.Key] = &cp
	}
	for i := range snap.Sink {
		cp := snap.Sink[i]
		fresh.sink[cp.Key] = &cp
	}
	for i := range snap.Buffer {
		cp := snap.Buffer[i]
		fresh.buffer = append(fresh.buffer, &cp)
	}
	ver := n.stateVer + 1
	*n = *fresh
	n.stateVer = ver
	return nil
}

// Fingerprint implements replica.State: source and sink contents (the
// sink-matches-source invariant is the issue-#23 detector).
func (n *Node) Fingerprint() string {
	return "src{" + n.SourceRows() + "}sink{" + n.SinkRows() + "}"
}
