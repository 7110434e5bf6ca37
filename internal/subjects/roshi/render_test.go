package roshi

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
)

// fmtRenderEntries and fmtFingerprint are the earlier fmt-based forms,
// the references for TestRenderMatchesFmt.
func fmtRenderEntries(entries []SelectEntry) string {
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = fmt.Sprintf("%s@%d", e.Member, e.Score)
		if e.Deleted {
			parts[i] += ":deleted"
		}
	}
	return strings.Join(parts, ",")
}

func fmtFingerprint(s *Store) string {
	keys := make([]string, 0, len(s.keys))
	for k := range s.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s{%s}", k, fmtRenderEntries(s.Select(k, true)))
	}
	return b.String()
}

// TestRenderMatchesFmt: select results and fingerprints are outcome
// signatures, so their bytes must not change with their implementation.
func TestRenderMatchesFmt(t *testing.T) {
	pieces := []string{"m", "k", "\"", "\\", "{", "@", ",", "\n", "é", "😀", "\xff", "%d"}
	text := func(r *rand.Rand) string {
		var b strings.Builder
		for n := r.Intn(4); n > 0; n-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		return b.String()
	}
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		s := New(Flags{})
		for i := r.Intn(25); i > 0; i-- {
			name := "insert"
			if r.Intn(3) == 0 {
				name = "delete"
			}
			score := strconv.FormatUint(r.Uint64()>>uint(r.Intn(64)), 10)
			if _, err := s.Apply(replica.Op{Name: name, Args: []string{text(r), text(r), score}}); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := s.Fingerprint(), fmtFingerprint(s); got != want {
			t.Fatalf("Fingerprint\n got  %q\n want %q", got, want)
		}
		for k := range s.keys {
			rows := s.Select(k, true)
			if got, want := renderEntries(rows), fmtRenderEntries(rows); got != want {
				t.Fatalf("renderEntries\n got  %q\n want %q", got, want)
			}
		}
	}
}
