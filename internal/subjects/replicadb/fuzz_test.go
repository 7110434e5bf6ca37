package replicadb

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
	n := New(Flags{})
	for _, op := range []replica.Op{
		{Name: "insert", Args: []string{"k1", "v1"}},
		{Name: "insert", Args: []string{"k3", "v3"}},
		{Name: "insert", Args: []string{"k2", "v2"}},
		{Name: "transferComplete"},
		{Name: "insert", Args: []string{"k4", "v4"}},
		{Name: "delete", Args: []string{"k3"}},
		{Name: "fetch", Args: []string{"2"}},
	} {
		if _, err := n.Apply(op); err != nil {
			f.Fatal(err)
		}
	}
	for _, st := range []*Node{New(Flags{}), n} {
		p, err := st.SyncPayload()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		sp, err := decodeSync(p)
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
		if got := sp.append(nil); !bytes.Equal(got, p) {
			t.Fatalf("accepted %x re-encodes to %x", p, got)
		}
	})
}
