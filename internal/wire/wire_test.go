package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hammerhead/internal/types"
)

func TestRoundTripAllPrimitives(t *testing.T) {
	d := types.HashBytes([]byte("digest"))
	var b []byte
	b = AppendU8(b, 0xAB)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, math.MaxUint64)
	b = AppendUvarint(b, 300)
	b = AppendVarint(b, -12345)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendBytes(b, []byte("hello"))
	b = AppendBytes(b, nil)
	b = AppendDigest(b, d)

	r := NewReader(b)
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %x", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Fatalf("U64 = %x", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Fatalf("Varint = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools flipped")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty Bytes = %q", got)
	}
	if got := r.Digest(); got != d {
		t.Fatalf("Digest = %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestBytesAliasesInput(t *testing.T) {
	b := AppendBytes(nil, []byte("aliased"))
	r := NewReader(b)
	got := r.Bytes()
	b[len(b)-1] = 'X' // mutate the backing buffer
	if string(got) != "aliaseX" {
		t.Fatalf("Bytes did not alias the input buffer: %q", got)
	}

	r2 := NewReader(AppendBytes(nil, []byte("copied")))
	cp := r2.BytesCopy()
	if string(cp) != "copied" {
		t.Fatalf("BytesCopy = %q", cp)
	}
}

func TestTruncationAtEveryPrefix(t *testing.T) {
	var b []byte
	b = AppendU64(b, 7)
	b = AppendBytes(b, []byte("payload"))
	b = AppendU32(b, 9)
	for i := 0; i < len(b); i++ {
		r := NewReader(b[:i])
		r.U64()
		r.Bytes()
		r.U32()
		if r.Finish() == nil {
			t.Fatalf("prefix of %d bytes decoded cleanly", i)
		}
	}
}

func TestLyingLengthFailsBeforeAllocation(t *testing.T) {
	// Declares 1 GiB of payload followed by 2 real bytes: the reader must
	// fail on the declared-vs-remaining check, not attempt to read (or
	// allocate) the gigabyte.
	b := AppendUvarint(nil, 1<<30)
	b = append(b, 0x01, 0x02)
	r := NewReader(b)
	if got := r.Bytes(); got != nil {
		t.Fatalf("Bytes = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", r.Err())
	}
}

func TestCountBoundsPreallocation(t *testing.T) {
	b := AppendUvarint(nil, 1<<40) // absurd element count
	b = append(b, make([]byte, 16)...)
	r := NewReader(b)
	if n := r.Count(8); n != 0 {
		t.Fatalf("Count = %d, want 0", n)
	}
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", r.Err())
	}

	// A count that fits is returned as-is.
	b2 := AppendUvarint(nil, 2)
	b2 = append(b2, make([]byte, 16)...)
	if n := NewReader(b2).Count(8); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
}

func TestNonCanonicalBoolRejected(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", r.Err())
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	b := AppendU32(nil, 1)
	b = append(b, 0xFF)
	r := NewReader(b)
	r.U32()
	if err := r.Finish(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Finish = %v, want ErrMalformed", err)
	}
}

func TestStickyErrorStopsAllReads(t *testing.T) {
	r := NewReader([]byte{0x01})
	r.U64() // fails: truncated
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}
	// Everything after the failure is a zero value, no panic.
	if r.U8() != 0 || r.U32() != 0 || r.Uvarint() != 0 || r.Bytes() != nil || r.Bool() {
		t.Fatal("reads after a sticky error must return zero values")
	}
	if !r.Digest().IsZero() {
		t.Fatal("digest after a sticky error must be zero")
	}
}

func TestVarintExtremes(t *testing.T) {
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		r := NewReader(AppendVarint(nil, v))
		if got := r.Varint(); got != v || r.Finish() != nil {
			t.Fatalf("varint %d round-tripped to %d (err %v)", v, got, r.Finish())
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		r := NewReader(AppendUvarint(nil, v))
		if got := r.Uvarint(); got != v || r.Finish() != nil {
			t.Fatalf("uvarint %d round-tripped to %d (err %v)", v, got, r.Finish())
		}
	}
}

func TestUvarintOverflowRejected(t *testing.T) {
	// 10 continuation bytes overflow a uint64.
	b := bytes.Repeat([]byte{0xFF}, 10)
	b = append(b, 0x7F)
	r := NewReader(b)
	r.Uvarint()
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", r.Err())
	}
}

// TestNonCanonicalVarintRejected: a varint padded with a trailing zero group
// decodes, under encoding/binary, to the same value as its minimal form — a
// second byte stream for one record, which Finish's every-byte accounting
// exists to rule out.
func TestNonCanonicalVarintRejected(t *testing.T) {
	for _, b := range [][]byte{{0x80, 0x00}, {0x85, 0x00}, {0xFF, 0x80, 0x00}} {
		r := NewReader(b)
		if v := r.Uvarint(); v != 0 || !errors.Is(r.Err(), ErrMalformed) {
			t.Fatalf("uvarint % x decoded to %d (err %v), want ErrMalformed", b, v, r.Err())
		}
		r = NewReader(b)
		if v := r.Varint(); v != 0 || !errors.Is(r.Err(), ErrMalformed) {
			t.Fatalf("varint % x decoded to %d (err %v), want ErrMalformed", b, v, r.Err())
		}
		r = NewReader(b)
		if p := r.Bytes(); p != nil || !errors.Is(r.Err(), ErrMalformed) {
			t.Fatalf("length prefix % x accepted (err %v)", b, r.Err())
		}
	}
}
