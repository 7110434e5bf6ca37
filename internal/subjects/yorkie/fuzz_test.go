package yorkie

import (
	"bytes"
	"errors"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/wire"
)

// FuzzApplySync: no input panics the sync decoder or the remote-apply
// path behind it, a rejected input is a wire error, and an accepted one
// re-encodes to the same bytes — the encoding is canonical. An accepted
// payload may still carry ops the document rejects. The corpus seeds are
// real payloads covering every op kind.
func FuzzApplySync(f *testing.F) {
	b := New("B", Flags{})
	c := New("C", Flags{})
	a := New("A", Flags{})
	for _, step := range []struct {
		d  *Doc
		op replica.Op
	}{
		{b, replica.Op{Name: "set", Args: []string{"title", "draft"}}},
		{b, replica.Op{Name: "arrInsert", Args: []string{"0", "x"}}},
		{c, replica.Op{Name: "set", Args: []string{"owner", "carol"}}},
		{c, replica.Op{Name: "arrInsert", Args: []string{"0", "y"}}},
		{c, replica.Op{Name: "setObject", Args: []string{"meta"}}},
		{c, replica.Op{Name: "set", Args: []string{"meta.tag", "q\"é"}}},
		{c, replica.Op{Name: "arrInsert", Args: []string{"1", "z"}}},
		{c, replica.Op{Name: "arrMove", Args: []string{"0", "2"}}},
		{c, replica.Op{Name: "deleteKey", Args: []string{"owner"}}},
	} {
		if _, err := step.d.Apply(step.op); err != nil {
			f.Fatal(err)
		}
	}
	for _, src := range []*Doc{b, c} {
		p, err := src.SyncPayload()
		if err != nil {
			f.Fatal(err)
		}
		if err := a.ApplySync(p); err != nil {
			f.Fatal(err)
		}
	}
	for _, d := range []*Doc{New("E", Flags{}), b, a} {
		p, err := d.SyncPayload()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		ops, err := decodeOps(p)
		applyErr := New("D", Flags{}).ApplySync(p)
		if err != nil {
			if !errors.Is(applyErr, wire.ErrCorrupt) {
				t.Fatalf("decoder rejected %x (%v) but ApplySync returned %v", p, err, applyErr)
			}
			return
		}
		if errors.Is(applyErr, wire.ErrCorrupt) {
			t.Fatalf("decodable %x: ApplySync: %v", p, applyErr)
		}
		if got := appendOps(nil, ops); !bytes.Equal(got, p) {
			t.Fatalf("accepted %x re-encodes to %x", p, got)
		}
	})
}
