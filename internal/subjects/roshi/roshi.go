// Package roshi re-implements the replication core of SoundCloud's Roshi
// (evaluation subject 1): a time-series event index with last-write-wins
// CRDT semantics. Keys map to sets of (member, score) pairs; inserts and
// deletes carry scores (timestamps), and the higher score wins. Selects
// return members by descending score with a "deleted" response field —
// the field at the heart of Roshi issue #18.
//
// Three seedable defects reproduce the paper's Roshi bug benchmarks:
//
//   - BugDeletedField (issue #18, "incorrect deleted field in response"):
//     a re-add at the same score as a prior delete keeps reporting the
//     member as deleted.
//   - BugEqualTimestampArrival (issue #11, "CRDT semantics violated if
//     same timestamp"): equal-score conflicts resolve by arrival order
//     instead of deterministically, so replicas diverge by interleaving.
//   - BugMapOrder (issue #40, "select and map order"): equal-score members
//     are returned in internal map-arrival order rather than a canonical
//     order, so reads are interleaving-dependent.
package roshi

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
	BugDeletedField          bool `json:"bug_deleted_field"`
	BugEqualTimestampArrival bool `json:"bug_equal_timestamp_arrival"`
	BugMapOrder              bool `json:"bug_map_order"`
	// ArrivalWins disables LWW conflict resolution entirely: the latest
	// applied record wins regardless of score. This seeds misconception #1
	// ("the underlying network ensures causal delivery") — application
	// code that skips the resolution step depends on arrival order.
	ArrivalWins bool `json:"arrival_wins"`
}

// record is one member's LWW state within a key.
type record struct {
	Member string `json:"member"`
	// Score is the logical timestamp of the winning operation.
	Score uint64 `json:"score"`
	// Deleted reports whether the winning operation was a delete.
	Deleted bool `json:"deleted"`
	// Arrival is a per-store application counter used (only) by the seeded
	// arrival-order and map-order defects.
	Arrival int `json:"arrival"`
}

// Store is one replica of the Roshi index.
type Store struct {
	flags   Flags
	keys    map[string]map[string]*record
	arrival int
	// ver counts mutations for snapshot-cache invalidation
	// (replica.Versioned); selects are pure and leave it untouched.
	ver uint64
}

var (
	_ replica.State     = (*Store)(nil)
	_ replica.Versioned = (*Store)(nil)
)

// StateVersion implements replica.Versioned.
func (s *Store) StateVersion() uint64 { return s.ver }

// New returns an empty store with the given defect flags.
func New(flags Flags) *Store {
	return &Store{flags: flags, keys: make(map[string]map[string]*record)}
}

// Insert applies an add of member to key at the given score.
func (s *Store) Insert(key, member string, score uint64) {
	s.apply(key, member, score, false)
}

// Delete applies a delete of member from key at the given score.
func (s *Store) Delete(key, member string, score uint64) {
	s.apply(key, member, score, true)
}

func (s *Store) apply(key, member string, score uint64, deleted bool) {
	s.ver++
	recs, ok := s.keys[key]
	if !ok {
		recs = make(map[string]*record)
		s.keys[key] = recs
	}
	s.arrival++
	if s.flags.ArrivalWins {
		// Misconception #1 seed: no resolution, last arrival wins.
		recs[member] = &record{Member: member, Score: score, Deleted: deleted, Arrival: s.arrival}
		return
	}
	cur, ok := recs[member]
	if !ok {
		del := deleted
		if s.flags.BugDeletedField && deleted {
			// Defect (issue #18): the code path creating a record for a
			// not-yet-known member forgets to set the deleted field, so a
			// tombstone that syncs in before its insert is recorded as
			// live. The wrong field value then wins LWW resolution against
			// the older insert — but only in interleavings where the
			// delete overtakes the insert.
			del = false
		}
		recs[member] = &record{Member: member, Score: score, Deleted: del, Arrival: s.arrival}
		return
	}
	switch {
	case score > cur.Score:
		cur.Score, cur.Deleted, cur.Arrival = score, deleted, s.arrival
	case score == cur.Score:
		if s.flags.BugEqualTimestampArrival {
			// Defect: last arrival wins, so the winner depends on the
			// interleaving (issue #11).
			cur.Deleted, cur.Arrival = deleted, s.arrival
			return
		}
		// Correct resolution: deletes win score ties (Roshi's documented
		// semantics after issue #11), deterministically.
		if deleted && !cur.Deleted {
			cur.Deleted = true
			cur.Arrival = s.arrival
		}
	}
}

// SelectEntry is one row of a Select response.
type SelectEntry struct {
	Member  string `json:"member"`
	Score   uint64 `json:"score"`
	Deleted bool   `json:"deleted"`
}

// Select returns the key's live entries (and, when includeDeleted is set,
// tombstones) ordered by descending score.
func (s *Store) Select(key string, includeDeleted bool) []SelectEntry {
	recs := s.keys[key]
	rows := make([]*record, 0, len(recs))
	for _, r := range recs {
		if r.Deleted && !includeDeleted {
			continue
		}
		rows = append(rows, r)
	}
	if s.flags.BugMapOrder {
		// Defect: equal scores keep map-arrival order (issue #40).
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Score != rows[j].Score {
				return rows[i].Score > rows[j].Score
			}
			return rows[i].Arrival < rows[j].Arrival
		})
	} else {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Score != rows[j].Score {
				return rows[i].Score > rows[j].Score
			}
			return rows[i].Member < rows[j].Member
		})
	}
	out := make([]SelectEntry, len(rows))
	for i, r := range rows {
		out[i] = SelectEntry{Member: r.Member, Score: r.Score, Deleted: r.Deleted}
	}
	return out
}

// Apply implements replica.State. Ops:
//
//	insert(key, member, score)
//	delete(key, member, score)
//	select(key)            -> "member@score[,deleted]..." live rows
//	selectAll(key)         -> rows including tombstones with deleted flags
func (s *Store) Apply(op replica.Op) (string, error) {
	switch op.Name {
	case "insert":
		score, err := strconv.ParseUint(op.Args[2], 10, 64)
		if err != nil {
			return "", fmt.Errorf("roshi: bad score: %w", err)
		}
		s.Insert(op.Args[0], op.Args[1], score)
		return "", nil
	case "delete":
		score, err := strconv.ParseUint(op.Args[2], 10, 64)
		if err != nil {
			return "", fmt.Errorf("roshi: bad score: %w", err)
		}
		// Roshi's LWW semantics accept deletes of not-yet-known members:
		// the tombstone is recorded and wins or loses by score later.
		s.Delete(op.Args[0], op.Args[1], score)
		return "", nil
	case "select":
		return renderEntries(s.Select(op.Args[0], false)), nil
	case "selectAll":
		return renderEntries(s.Select(op.Args[0], true)), nil
	default:
		return "", fmt.Errorf("roshi: unknown op %s", op.Name)
	}
}

func renderEntries(entries []SelectEntry) string {
	return string(appendEntries(nil, entries))
}

// appendEntries renders entries as "member@score[:deleted]", comma-joined.
func appendEntries(b []byte, entries []SelectEntry) []byte {
	for i, e := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, e.Member...)
		b = append(b, '@')
		b = strconv.AppendUint(b, e.Score, 10)
		if e.Deleted {
			b = append(b, ":deleted"...)
		}
	}
	return b
}

// syncRecord is the wire form of one record.
type syncRecord struct {
	Key     string
	Member  string
	Score   uint64
	Deleted bool
}

// SyncPayload implements replica.State: the full record table, sorted by
// key, then member.
func (s *Store) SyncPayload() ([]byte, error) {
	var recs []syncRecord
	for key, members := range s.keys {
		for _, r := range members {
			recs = append(recs, syncRecord{Key: key, Member: r.Member, Score: r.Score, Deleted: r.Deleted})
		}
	}
	slices.SortFunc(recs, func(a, b syncRecord) int {
		if c := strings.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return strings.Compare(a.Member, b.Member)
	})
	return appendRecords(nil, recs), nil
}

// ApplySync implements replica.State: merge the remote records through the
// same LWW resolution as local ops.
func (s *Store) ApplySync(payload []byte) error {
	recs, err := decodeRecords(payload)
	if err != nil {
		return fmt.Errorf("roshi: sync payload: %w", err)
	}
	for _, r := range recs {
		s.apply(r.Key, r.Member, r.Score, r.Deleted)
	}
	return nil
}

// appendRecords writes the sync wire form (DESIGN.md §4.16): a record
// count, then each record's key, member, score and deleted flag.
func appendRecords(b []byte, recs []syncRecord) []byte {
	b = wire.AppendUint(b, uint64(len(recs)))
	for _, r := range recs {
		b = wire.AppendString(b, r.Key)
		b = wire.AppendString(b, r.Member)
		b = wire.AppendUint(b, r.Score)
		b = wire.AppendBool(b, r.Deleted)
	}
	return b
}

// decodeRecords reads appendRecords' form, all of it, or fails.
func decodeRecords(payload []byte) ([]syncRecord, error) {
	r := wire.NewReader(payload)
	recs := make([]syncRecord, r.Count(4))
	for i := range recs {
		recs[i] = syncRecord{Key: r.String(), Member: r.String(), Score: r.Uint(), Deleted: r.Bool()}
	}
	return recs, r.Done()
}

// storeSnapshot is the checkpoint form of a store. Unlike the sync wire
// form it carries the per-record Arrival order and the arrival counter:
// the seeded arrival-order and map-order defects read them, so a
// checkpoint that dropped them would change behavior across a
// Restore(Snapshot()) round trip (the fidelity checkpoint resets and
// state subsumption rely on — see replica.State).
type storeSnapshot struct {
	Keys    map[string]map[string]*record `json:"keys"`
	Arrival int                           `json:"arrival"`
}

// arrivalMatters reports whether any seeded defect reads the arrival
// bookkeeping. When none does, Arrival values are incidental to behavior
// and must not leak into the snapshot encoding — equal logical states
// reached through different interleavings would otherwise serialize
// differently, defeating snapshot-hash state subsumption.
func (s *Store) arrivalMatters() bool {
	return s.flags.ArrivalWins || s.flags.BugEqualTimestampArrival || s.flags.BugMapOrder
}

// Snapshot implements replica.State: a dump of the record table. Arrival
// bookkeeping is carried only when a seeded defect reads it (a checkpoint
// that dropped it would then change behavior across a Restore(Snapshot())
// round trip); otherwise it is normalized to zero so the encoding is
// canonical. Map keys serialize sorted (encoding/json), so no explicit
// ordering is needed.
func (s *Store) Snapshot() ([]byte, error) {
	if s.arrivalMatters() {
		return json.Marshal(storeSnapshot{Keys: s.keys, Arrival: s.arrival})
	}
	norm := make(map[string]map[string]*record, len(s.keys))
	for key, members := range s.keys {
		ms := make(map[string]*record, len(members))
		for m, r := range members {
			cp := *r
			cp.Arrival = 0
			ms[m] = &cp
		}
		norm[key] = ms
	}
	return json.Marshal(storeSnapshot{Keys: norm})
}

// Restore implements replica.State.
func (s *Store) Restore(snapshot []byte) error {
	var snap storeSnapshot
	if err := json.Unmarshal(snapshot, &snap); err != nil {
		return fmt.Errorf("roshi: snapshot: %w", err)
	}
	s.ver++
	s.keys = snap.Keys
	if s.keys == nil {
		s.keys = make(map[string]map[string]*record)
	}
	s.arrival = snap.Arrival
	return nil
}

// Fingerprint implements replica.State: canonical live membership with
// deleted flags, so both membership and response-field defects surface.
func (s *Store) Fingerprint() string {
	keys := make([]string, 0, len(s.keys))
	for k := range s.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, '{')
		b = appendEntries(b, s.Select(k, true))
		b = append(b, '}')
	}
	return string(b)
}
