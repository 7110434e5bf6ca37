// Package wire is the byte-level toolkit of the subjects' sync codecs
// (DESIGN.md §4.16): appends that write unsigned varints, length-prefixed
// strings and one-byte bools, and a Reader that decodes them back.
//
// Every value has exactly one encoding, and the Reader enforces it: it
// rejects overlong varints and bool bytes other than 0 and 1, so a payload
// it accepts re-encodes to the same bytes. Its error is sticky — after the
// first failure every read returns a zero value — so a decoder reads whole
// records and checks Done once at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is the Reader's error for bytes that are not a valid
// encoding: truncated, overlong, out of range, or followed by extra bytes.
var ErrCorrupt = errors.New("wire: corrupt payload")

// AppendUint appends v as an unsigned varint.
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendString appends s as its byte length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader decodes values in the order they were appended.
type Reader struct {
	b []byte
	// s holds the same bytes as b, copied once, so String slices it
	// instead of allocating per string.
	s   string
	off int
	err error
}

// NewReader returns a Reader over p. The Reader copies p; the caller may
// reuse it.
func NewReader(p []byte) *Reader { return &Reader{b: p, s: string(p)} }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at byte %d of %d", ErrCorrupt, what, r.off, len(r.b))
	}
}

// Uint reads an unsigned varint in its shortest form.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.fail("truncated varint")
		return 0
	case n < 0:
		r.fail("varint overflow")
		return 0
	case n > 1 && r.b[r.off+n-1] == 0:
		r.fail("overlong varint")
		return 0
	}
	r.off += n
	return v
}

// Count reads a record count. Each record takes at least minSize bytes,
// so a count the remaining bytes cannot hold fails here, before the
// caller sizes an allocation by it.
func (r *Reader) Count(minSize int) int {
	n := r.Uint()
	if r.err == nil && n > uint64((len(r.b)-r.off)/minSize) {
		r.fail("count exceeds payload")
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string, byte for byte.
func (r *Reader) String() string {
	n := r.Uint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("truncated string")
		return ""
	}
	s := r.s[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off == len(r.b) {
		r.fail("truncated bool")
		return false
	}
	c := r.b[r.off]
	if c > 1 {
		r.fail("bad bool")
		return false
	}
	r.off++
	return c == 1
}

// Done returns the first error, or an error if any bytes are left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("trailing bytes")
	}
	return r.err
}
