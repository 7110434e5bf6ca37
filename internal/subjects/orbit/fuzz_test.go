package orbit

import (
	"bytes"
	"errors"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/wire"
)

// FuzzApplySync: no input panics the sync decoder, a rejected input is a
// wire error, and an accepted one re-encodes to the same bytes — the
// encoding is canonical. An accepted payload may still fail the join (a
// hash mismatch or clock skew is a failed op). The corpus seeds are real
// payloads.
func FuzzApplySync(f *testing.F) {
	b := New("B", Flags{})
	c := New("C", Flags{})
	a := New("A", Flags{})
	for _, step := range []func() error{
		func() error { return b.Append("b1") },
		func() error { return b.Append("b2") },
		func() error { return c.Append("c1") },
		func() error { return syncFrom(a, b) },
		func() error { return syncFrom(a, c) },
	} {
		if err := step(); err != nil {
			f.Fatal(err)
		}
	}
	for _, db := range []*DB{New("E", Flags{}), b, a} {
		p, err := db.SyncPayload()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		entries, err := decodeEntries(p)
		applyErr := New("D", Flags{}).ApplySync(p)
		if err != nil {
			if !errors.Is(applyErr, wire.ErrCorrupt) {
				t.Fatalf("decoder rejected %x (%v) but ApplySync returned %v", p, err, applyErr)
			}
			return
		}
		if applyErr != nil && !errors.Is(applyErr, replica.ErrFailedOp) {
			t.Fatalf("decodable %x: ApplySync: %v", p, applyErr)
		}
		if got := appendEntries(nil, entries); !bytes.Equal(got, p) {
			t.Fatalf("accepted %x re-encodes to %x", p, got)
		}
	})
}

func syncFrom(dst, src *DB) error {
	p, err := src.SyncPayload()
	if err != nil {
		return err
	}
	return dst.ApplySync(p)
}
