package merkle

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// fmtCanonical is canonical's earlier fmt-based form, the reference for
// TestCanonicalMatchesFmt.
func fmtCanonical(e *Entry) string {
	parents := make([]string, len(e.Parents))
	copy(parents, e.Parents)
	sort.Strings(parents)
	return fmt.Sprintf("payload=%q clock=%d id=%q parents=%s",
		e.Payload, e.Clock, e.Identity, strings.Join(parents, ","))
}

// randText draws strings rich in the bytes %q escapes: quotes,
// backslashes, control bytes, non-ASCII and invalid UTF-8.
func randText(r *rand.Rand) string {
	pieces := []string{"a", "Z", "9", " ", "\"", "\\", "'", "`", "\n", "\x00", "\x7f", "é", "日本", "😀", "\xff", "\xc3", "%q", "#synced"}
	var b strings.Builder
	for n := r.Intn(8); n > 0; n-- {
		b.WriteString(pieces[r.Intn(len(pieces))])
	}
	return b.String()
}

// TestCanonicalMatchesFmt: canonical is what content addresses hash, so
// its bytes must not change with its implementation.
func TestCanonicalMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 3000; n++ {
		e := &Entry{Payload: randText(r), Clock: r.Uint64() >> uint(r.Intn(64)), Identity: randText(r)}
		for i := r.Intn(4); i > 0; i-- {
			e.Parents = append(e.Parents, randText(r))
		}
		before := append([]string(nil), e.Parents...)
		if got, want := string(e.canonical()), fmtCanonical(e); got != want {
			t.Fatalf("canonical(%+v)\n got  %q\n want %q", e, got, want)
		}
		if strings.Join(e.Parents, "\x00") != strings.Join(before, "\x00") {
			t.Fatalf("canonical reordered the entry's parents: %q, was %q", e.Parents, before)
		}
	}
}

// TestComputeHashGolden pins content addresses: a drift here would change
// every OrbitDB entry hash, head set and fingerprint.
func TestComputeHashGolden(t *testing.T) {
	for _, c := range []struct {
		e    Entry
		want string
	}{
		{Entry{Payload: "b1", Clock: 1, Identity: "B"},
			"c5691521be7f78a6a3d29504f0c3b381a6159322d050ac89357a901cbd607b98"},
		{Entry{Payload: "q\"uo\\te é\x01", Clock: 42, Identity: "peer \"x\"", Parents: []string{"ff", "00", "a"}},
			"ddbd65eb620eeb99ed02b5586e17555cc364c5850b1587774d4d893d513c912b"},
	} {
		if got := c.e.ComputeHash(); got != c.want {
			t.Errorf("ComputeHash(%+v) = %s, want %s", c.e, got, c.want)
		}
	}
}
