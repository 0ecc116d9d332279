// Package wire is the deterministic binary codec underneath every
// HammerHead byte stream: transport frames, WAL records, snapshots and
// scheduler state — byte streams that consensus compares bit for bit, so
// nothing here may depend on reflection or map iteration order.
//
// The codec is deliberately primitive: explicit field order, length-prefixed
// byte strings, fixed-width big-endian integers where the value is usually
// large (rounds, sequence numbers, digests) and varints where it is usually
// small (counts, lengths, scores). There is no reflection, no type
// negotiation and no schema on the hot path; versioning lives in the single
// tag byte each layer prefixes its records with (see the README's "Wire
// format" section for the per-layer layouts; an unknown tag is refused).
//
// Decoding is zero-copy where possible: Reader.Bytes returns sub-slices
// aliasing the input buffer, so decoding a message allocates only the
// decoded structs, never a second copy of signatures, batches or snapshot
// chunks. Callers that retain decoded payloads beyond the buffer's life use
// BytesCopy. Every length read is bounds-checked against the bytes actually
// remaining BEFORE any allocation, so a hostile peer declaring a
// multi-gigabyte count costs the decoder nothing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hammerhead/internal/types"
)

// Decode errors. Reader methods never panic on hostile input; the first
// failure sticks and every subsequent read returns the zero value.
var (
	// ErrTruncated reports input that ended before a declared field.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrMalformed reports input that is structurally invalid (a length
	// exceeding the remaining bytes, a non-canonical bool or varint, trailing
	// garbage).
	ErrMalformed = errors.New("wire: malformed input")
)

// ---- encode: append-style helpers ----
//
// Encoders are plain append functions so callers compose them into one
// buffer sized by an EncodedSize estimate, with zero intermediate
// allocations. All of them are deterministic by construction: no maps, no
// clocks, explicit field order.

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU32 appends a fixed-width big-endian uint32.
func AppendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

// AppendU64 appends a fixed-width big-endian uint64.
func AppendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// AppendUvarint appends an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends a zigzag-encoded signed varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendBool appends a canonical bool (exactly 0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends a uvarint length prefix followed by p.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendDigest appends the 32 digest bytes with no length prefix (the size
// is part of the format).
func AppendDigest(b []byte, d types.Digest) []byte {
	return append(b, d[:]...)
}

// ---- decode: bounds-checked reader ----

// Reader consumes a wire-encoded buffer. The error model is sticky: after
// the first failure all reads return zero values and Err/Finish report the
// failure, so decoders chain field reads without per-field checks.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader aliases buf; it never
// copies or mutates it.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many bytes are left to read.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish returns the sticky error, or ErrMalformed if intact input has
// unconsumed trailing bytes — a decoded record must account for every byte,
// otherwise two byte streams could decode to the same value and
// byte-equality arguments (WAL offsets, snapshot digests) break.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take returns the next n bytes as an alias of the input buffer.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U32 reads a fixed-width big-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// U64 reads a fixed-width big-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// Uvarint reads an unsigned varint, failing on one padded with a trailing
// zero group (0x80 0x00 for 0): like a non-canonical bool, a second encoding
// of the same value would make decode∘encode non-identity.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	return r.varintRead(v, n)
}

// Varint reads a zigzag-encoded signed varint, canonical like Uvarint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	return int64(r.varintRead(uint64(v), n))
}

// varintRead vets what encoding/binary decoded at the read offset — n as
// binary.Uvarint reports it — and consumes it.
func (r *Reader) varintRead(v uint64, n int) uint64 {
	switch {
	case n == 0:
		r.fail(ErrTruncated)
		return 0
	case n < 0:
		r.fail(fmt.Errorf("%w: varint overflow", ErrMalformed))
		return 0
	case n > 1 && r.buf[r.off+n-1] == 0:
		r.fail(fmt.Errorf("%w: non-canonical varint", ErrMalformed))
		return 0
	}
	r.off += n
	return v
}

// Bool reads a canonical bool, failing on any byte other than 0 or 1 (a
// non-canonical encoding would make decode∘encode non-identity).
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: non-canonical bool", ErrMalformed))
		return false
	}
}

// Bytes reads a length-prefixed byte string as an alias of the input buffer
// (zero-copy). The declared length is validated against the remaining bytes
// before anything is touched, so no allocation ever happens for a lying
// length.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(fmt.Errorf("%w: declared length %d exceeds %d remaining bytes", ErrMalformed, n, r.Remaining()))
		return nil
	}
	return r.take(int(n))
}

// BytesCopy reads a length-prefixed byte string into a fresh allocation —
// for decoders whose output must outlive the input buffer. A zero-length
// string decodes to nil, matching the encode side's treatment of nil.
func (r *Reader) BytesCopy() []byte {
	p := r.Bytes()
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// Digest reads 32 raw digest bytes.
func (r *Reader) Digest() types.Digest {
	var d types.Digest
	p := r.take(types.DigestSize)
	if p != nil {
		copy(d[:], p)
	}
	return d
}

// Count reads a uvarint element count for a sequence whose elements each
// occupy at least elemMin encoded bytes, and validates it against the
// remaining input: a count that could not possibly fit fails immediately, so
// slice pre-allocation downstream is always bounded by the actual input
// size. elemMin values below 1 are treated as 1.
func (r *Reader) Count(elemMin int) int {
	if elemMin < 1 {
		elemMin = 1
	}
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/elemMin) {
		r.fail(fmt.Errorf("%w: declared count %d exceeds remaining input", ErrMalformed, n))
		return 0
	}
	return int(n)
}
