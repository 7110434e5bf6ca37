package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/subjects/orbit"
	"github.com/er-pi/erpi/internal/subjects/replicadb"
	"github.com/er-pi/erpi/internal/subjects/roshi"
	"github.com/er-pi/erpi/internal/subjects/yorkie"
)

// Sync wire contract (DESIGN.md §4.16, replica.State): payloads are
// canonical, because the subsumption context hashes pending payloads;
// decoding is strict, so a TruncatePayload fault always fails the sync;
// and a rejected payload changes nothing.

func payload(t *testing.T, s replica.State) []byte {
	t.Helper()
	p, err := s.SyncPayload()
	if err != nil {
		t.Fatalf("SyncPayload: %v", err)
	}
	return p
}

// wireCase pairs two constructions of one sync state with a fresh
// receiver (whose identity differs from every sender's).
type wireCase struct {
	name  string
	a, b  func(t *testing.T) replica.State
	fresh func() replica.State
}

// wireCases reuses the snapshot-canonicality constructions. Roshi and
// ReplicaDB send their tables sorted, so any op order works. OrbitDB and
// Yorkie send their logs in local arrival order — state under their
// defect flags, and the order the JSON form had — so their second
// construction reaches the same arrival order by another route: redundant
// re-syncs and a relay that merged both peers.
func wireCases() []wireCase {
	return []wireCase{
		{
			name:  "roshi",
			a:     func(t *testing.T) replica.State { return roshiApplied(t, false) },
			b:     func(t *testing.T) replica.State { return roshiApplied(t, true) },
			fresh: func() replica.State { return roshi.New(roshi.Flags{}) },
		},
		{
			name:  "orbit",
			a:     func(t *testing.T) replica.State { return orbitMerged(t, false) },
			b:     orbitRelayed,
			fresh: func() replica.State { return orbit.New("D", orbit.Flags{}) },
		},
		{
			name:  "replicadb",
			a:     func(t *testing.T) replica.State { return replicadbApplied(t) },
			b:     func(t *testing.T) replica.State { return replicadbApplied(t) },
			fresh: func() replica.State { return replicadb.New(replicadb.Flags{}) },
		},
		{
			name:  "yorkie",
			a:     func(t *testing.T) replica.State { return yorkieMerged(t, false) },
			b:     yorkieRelayed,
			fresh: func() replica.State { return yorkie.New("D", yorkie.Flags{}) },
		},
	}
}

// orbitRelayed reaches orbitMerged(t, false)'s DAG and arrival order
// (B's entries, then C's) through a re-sync and a relay R that merged B
// and C.
func orbitRelayed(t *testing.T) replica.State {
	t.Helper()
	b := orbit.New("B", orbit.Flags{})
	apply(t, b, "append", "b1")
	apply(t, b, "append", "b2")
	c := orbit.New("C", orbit.Flags{})
	apply(t, c, "append", "c1")
	r := orbit.New("R", orbit.Flags{})
	syncInto(t, r, b)
	syncInto(t, r, c)

	a := orbit.New("A", orbit.Flags{})
	syncInto(t, a, b)
	syncInto(t, a, b)
	syncInto(t, a, r)
	syncInto(t, a, c)
	return a
}

// yorkieRelayed is orbitRelayed for yorkieMerged(t, false).
func yorkieRelayed(t *testing.T) replica.State {
	t.Helper()
	b := yorkie.New("B", yorkie.Flags{})
	apply(t, b, "set", "title", "draft")
	apply(t, b, "arrInsert", "0", "x")
	c := yorkie.New("C", yorkie.Flags{})
	apply(t, c, "set", "owner", "carol")
	apply(t, c, "arrInsert", "0", "y")
	r := yorkie.New("R", yorkie.Flags{})
	syncInto(t, r, b)
	syncInto(t, r, c)

	a := yorkie.New("A", yorkie.Flags{})
	syncInto(t, a, b)
	syncInto(t, a, r)
	syncInto(t, a, b)
	syncInto(t, a, c)
	return a
}

// TestSyncPayloadsCanonical: both constructions of one sync state send
// identical bytes, and sending twice does too.
func TestSyncPayloadsCanonical(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			x, y := c.a(t), c.b(t)
			px := payload(t, x)
			if again := payload(t, x); !bytes.Equal(px, again) {
				t.Errorf("SyncPayload not deterministic:\n 1st: %x\n 2nd: %x", px, again)
			}
			if py := payload(t, y); !bytes.Equal(px, py) {
				t.Errorf("equal sync states send different payloads:\n a: %x\n b: %x", px, py)
			}
		})
	}
}

// TestSyncPayloadStrict: every strict prefix of a payload, and the payload
// with one byte appended, is rejected with an error that is not a failed
// op, and the rejected sync leaves the receiver's fingerprint and snapshot
// untouched.
func TestSyncPayloadStrict(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			p := payload(t, c.a(t))
			recv := c.fresh()
			fp, sn := recv.Fingerprint(), snap(t, recv)
			bad := func(what string, q []byte) {
				err := recv.ApplySync(q)
				if err == nil || errors.Is(err, replica.ErrFailedOp) {
					t.Fatalf("%s: ApplySync err = %v, want a decode error", what, err)
				}
				if got := recv.Fingerprint(); got != fp {
					t.Fatalf("%s: rejected payload changed the fingerprint:\n before: %s\n after:  %s", what, fp, got)
				}
				if got := snap(t, recv); !bytes.Equal(got, sn) {
					t.Fatalf("%s: rejected payload changed the snapshot:\n before: %s\n after:  %s", what, sn, got)
				}
			}
			for k := 0; k < len(p); k++ {
				bad("prefix", p[:k:k])
			}
			bad("trailing byte", append(p[:len(p):len(p)], 0))
			if err := recv.ApplySync(p); err != nil {
				t.Fatalf("full payload: %v", err)
			}
		})
	}
}

// TestSyncRoundTripGolden: a fresh replica that applies a construction's
// payload reaches the fingerprint and snapshot it reached under the JSON
// wire form (pinned values, the snapshot as its SHA-256).
func TestSyncRoundTripGolden(t *testing.T) {
	golden := map[string]struct{ fp, snap string }{
		"roshi": {`feed{track-1@7:deleted,track-2@3}likes{track-9@4}`,
			"7b4ba0507b4008dbffed913ab024d6584150465d82988570e99a831c2c7a1ac8"},
		"orbit": {`b1,c1,b2|ok`,
			"0759ad51e2b17846714c0663fa16d272a000e3282133af70f4b95625b2254552"},
		"replicadb": {`src{k1=v1,k2=v2,k3=v3,k4=v4}sink{}`,
			"5829411bd27b3c98405b54dda402af2569ad985890b8d0b88e2b0a23c38bedb1"},
		"yorkie": {`{"owner":"carol","title":"draft"}|[y,x]`,
			"7fdd39f25cc1634cafdc70a91cb0382951ff3e4ef6104939aad1a38283f17265"},
	}
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			want := golden[c.name]
			recv := c.fresh()
			if err := recv.ApplySync(payload(t, c.a(t))); err != nil {
				t.Fatalf("ApplySync: %v", err)
			}
			if got := recv.Fingerprint(); got != want.fp {
				t.Errorf("fingerprint = %s, want %s", got, want.fp)
			}
			s := snap(t, recv)
			if sum := sha256.Sum256(s); hex.EncodeToString(sum[:]) != want.snap {
				t.Errorf("snapshot %s hashes to %x, want %s", s, sum, want.snap)
			}
		})
	}
}
