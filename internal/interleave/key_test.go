package interleave

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/event"
)

// fmtKey is Key's earlier fmt-based form, the reference for TestKeyMatchesFmt.
func fmtKey(il Interleaving) string {
	var b strings.Builder
	for i, id := range il {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", int(id))
	}
	return b.String()
}

// TestKeyMatchesFmt: Key is the pool's dedup key and the journal's record
// of an interleaving, so its bytes must not change with its implementation.
func TestKeyMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		il := make(Interleaving, r.Intn(30))
		for i := range il {
			switch r.Intn(4) {
			case 0:
				il[i] = event.ID(r.Int())
			case 1:
				il[i] = event.ID(-r.Intn(1000))
			default:
				il[i] = event.ID(r.Intn(100))
			}
		}
		if got, want := il.Key(), fmtKey(il); got != want {
			t.Fatalf("Key(%v) = %q, want %q", []event.ID(il), got, want)
		}
	}
}
