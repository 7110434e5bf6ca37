package wire

import (
	"errors"
	"math"
	"testing"
)

func encodeSample() []byte {
	b := AppendUint(nil, 2)
	b = AppendString(b, "k\"é\x00\xff")
	b = AppendUint(b, math.MaxUint64)
	b = AppendBool(b, true)
	b = AppendString(b, "")
	b = AppendUint(b, 0)
	return AppendBool(b, false)
}

func decodeSample(p []byte) (n int, s string, u uint64, t bool, e string, z uint64, f bool, err error) {
	r := NewReader(p)
	n = r.Count(1)
	s, u, t, e, z, f = r.String(), r.Uint(), r.Bool(), r.String(), r.Uint(), r.Bool()
	return n, s, u, t, e, z, f, r.Done()
}

func TestRoundTrip(t *testing.T) {
	n, s, u, tr, e, z, f, err := decodeSample(encodeSample())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || s != "k\"é\x00\xff" || u != math.MaxUint64 || !tr || e != "" || z != 0 || f {
		t.Fatalf("decoded %d %q %d %v %q %d %v", n, s, u, tr, e, z, f)
	}
}

// TestEveryStrictPrefixFails pins the strictness the TruncatePayload fault
// relies on: no strict prefix of a valid encoding decodes.
func TestEveryStrictPrefixFails(t *testing.T) {
	p := encodeSample()
	for k := 0; k < len(p); k++ {
		if _, _, _, _, _, _, _, err := decodeSample(p[:k]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrCorrupt", k, len(p), err)
		}
	}
	if _, _, _, _, _, _, _, err := decodeSample(append(p, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
	}
}

func TestRejectsNonCanonical(t *testing.T) {
	for name, p := range map[string][]byte{
		"overlong zero": {0x80, 0x00},
		"overlong one":  {0x81, 0x80, 0x00},
		"overflow":      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"eleven bytes":  {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"unterminated":  {0x80},
		"trailing":      {0x01, 0x00},
	} {
		r := NewReader(p)
		r.Uint()
		if err := r.Done(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	r := NewReader([]byte{2})
	if r.Bool(); !errors.Is(r.Done(), ErrCorrupt) {
		t.Errorf("bool byte 2 accepted")
	}
}

// TestCountBoundedByPayload: a count the remaining bytes cannot hold fails
// before anyone allocates for it, and the error sticks.
func TestCountBoundedByPayload(t *testing.T) {
	r := NewReader(AppendUint(nil, math.MaxUint64))
	if n := r.Count(1); n != 0 || r.Done() == nil {
		t.Fatalf("huge count = %d, err %v", n, r.Done())
	}
	r = NewReader(append(AppendUint(nil, 2), 0, 0, 0))
	if n := r.Count(2); n != 0 || r.Done() == nil {
		t.Fatalf("count 2 of min size 2 in 3 bytes = %d, err %v", n, r.Done())
	}
	if s := r.String(); s != "" {
		t.Fatalf("read after error = %q, want zero value", s)
	}
	r = NewReader(append(AppendUint(nil, 3), 0, 0, 0))
	if n := r.Count(1); n != 3 {
		t.Fatalf("count 3 in 3 bytes = %d, err %v", n, r.Done())
	}
}

// TestStringCopiesInput: decoded strings must not alias the caller's
// buffer, which the engine may reuse.
func TestStringCopiesInput(t *testing.T) {
	p := AppendString(nil, "abc")
	r := NewReader(p)
	s := r.String()
	p[1] = 'x'
	if s != "abc" || r.Done() != nil {
		t.Fatalf("decoded %q (%v) after the input changed", s, r.Done())
	}
}
