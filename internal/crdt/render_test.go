package crdt

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// fmtRenderObject is appendObject's earlier fmt-based form, the reference
// for TestSnapshotMatchesFmt.
func fmtRenderObject(b *strings.Builder, obj *jsonObject) {
	b.WriteByte('{')
	keys := make([]string, 0, len(obj.fields))
	for k, e := range obj.fields {
		if e.visible() {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%q:", k)
		e := obj.fields[k]
		if e.isObject() {
			if e.children != nil {
				fmtRenderObject(b, e.children)
			} else {
				b.WriteString("{}")
			}
			continue
		}
		fmt.Fprintf(b, "%q", e.prim)
	}
	b.WriteByte('}')
}

// TestSnapshotMatchesFmt: JSONDoc.Snapshot feeds Yorkie's fingerprints
// and read results, so its bytes must not change with its implementation.
func TestSnapshotMatchesFmt(t *testing.T) {
	pieces := []string{"a", "b", "\"", "\\", "\n", "\x00", "é", "日本", "😀", "\xff", "%q"}
	text := func(r *rand.Rand) string {
		var b strings.Builder
		for n := 1 + r.Intn(3); n > 0; n-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		return b.String()
	}
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		d := NewJSONDoc()
		clock := NewClock("r")
		for i := r.Intn(20); i > 0; i-- {
			path := make([]string, 1+r.Intn(3))
			for j := range path {
				path[j] = text(r)
			}
			switch r.Intn(4) {
			case 0:
				_ = d.SetObject(path, clock.Now())
			case 1:
				_ = d.Delete(path, clock.Now())
			default:
				_ = d.Set(path, text(r), clock.Now())
			}
		}
		var want strings.Builder
		fmtRenderObject(&want, d.root)
		if got := d.Snapshot(); got != want.String() {
			t.Fatalf("Snapshot\n got  %q\n want %q", got, want.String())
		}
	}
}
