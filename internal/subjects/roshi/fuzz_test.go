package roshi

import (
	"bytes"
	"errors"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/wire"
)

// FuzzApplySync: no input panics the sync decoder, a rejected input is a
// wire error, and an accepted one re-encodes to the same bytes — the
// encoding is canonical. The corpus seeds are real payloads.
func FuzzApplySync(f *testing.F) {
	empty := New(Flags{})
	s := New(Flags{})
	for _, op := range []replica.Op{
		{Name: "insert", Args: []string{"feed", "track-1", "5"}},
		{Name: "insert", Args: []string{"feed", "track-2", "3"}},
		{Name: "delete", Args: []string{"feed", "track-1", "7"}},
		{Name: "insert", Args: []string{"likes", "track-9", "4"}},
	} {
		if _, err := s.Apply(op); err != nil {
			f.Fatal(err)
		}
	}
	for _, st := range []*Store{empty, s} {
		p, err := st.SyncPayload()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		recs, err := decodeRecords(p)
		applyErr := New(Flags{}).ApplySync(p)
		if err != nil {
			if !errors.Is(applyErr, wire.ErrCorrupt) {
				t.Fatalf("decoder rejected %x (%v) but ApplySync returned %v", p, err, applyErr)
			}
			return
		}
		if applyErr != nil {
			t.Fatalf("decodable %x: ApplySync: %v", p, applyErr)
		}
		if got := appendRecords(nil, recs); !bytes.Equal(got, p) {
			t.Fatalf("accepted %x re-encodes to %x", p, got)
		}
	})
}
