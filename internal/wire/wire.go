// Package wire is the repository's one varint codec: the primitives
// under every payload a process accepts from a socket — transport's
// frames, the handshake's program among them. Enc appends; Dec reads a payload it holds whole, so every
// bound it enforces is a bound on bytes actually received. The package
// decides no format: what the integers, strings and values mean is the
// business of the codec built on it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mpcrete/internal/ops5"
)

// ErrBadPayload reports a payload that fails to decode. Every failure
// a Dec records wraps it.
var ErrBadPayload = errors.New("wire: malformed payload")

// Enc is an append-only encoder over Buf.
type Enc struct {
	Buf []byte
}

func (e *Enc) U64(v uint64)  { e.Buf = binary.AppendUvarint(e.Buf, v) }
func (e *Enc) I64(v int64)   { e.Buf = binary.AppendVarint(e.Buf, v) }
func (e *Enc) Byte(b byte)   { e.Buf = append(e.Buf, b) }
func (e *Enc) Raw(b []byte)  { e.Buf = append(e.Buf, b...) }
func (e *Enc) Str(s string)  { e.U64(uint64(len(s))); e.Buf = append(e.Buf, s...) }
func (e *Enc) I32(v int32)   { e.I64(int64(v)) }
func (e *Enc) Int(v int)     { e.I64(int64(v)) }
func (e *Enc) Count(n int)   { e.U64(uint64(n)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

func (e *Enc) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

func (e *Enc) Value(v ops5.Value) {
	e.Byte(byte(v.Kind))
	switch v.Kind {
	case ops5.KindSym:
		e.Str(v.Sym)
	case ops5.KindNum:
		e.F64(v.Num)
	}
}

// Dec is a bounds-checked payload decoder with a sticky error: the
// first failure is recorded in Err (always wrapping ErrBadPayload) and
// empties the input, so every later read fails the same way and yields
// a zero value. Decoders therefore read straight through and their
// callers check Err (or Done) once, before using anything decoded.
type Dec struct {
	B   []byte // the unread rest of the payload
	Off int    // consumed bytes, for error context
	Err error
}

// Reset points the decoder at the next payload.
func (d *Dec) Reset(payload []byte) { d.B, d.Off, d.Err = payload, 0, nil }

func (d *Dec) Fail(what string) {
	if d.Err == nil {
		d.Err = fmt.Errorf("%w: %s at offset %d", ErrBadPayload, what, d.Off)
	}
	d.B = nil
}

func (d *Dec) advance(n int) {
	d.B = d.B[n:]
	d.Off += n
}

func (d *Dec) U64() uint64 {
	v, n := binary.Uvarint(d.B)
	if n <= 0 {
		d.Fail("uvarint")
		return 0
	}
	d.advance(n)
	return v
}

func (d *Dec) I64() int64 {
	v, n := binary.Varint(d.B)
	if n <= 0 {
		d.Fail("varint")
		return 0
	}
	d.advance(n)
	return v
}

func (d *Dec) Byte() byte {
	if len(d.B) == 0 {
		d.Fail("byte")
		return 0
	}
	b := d.B[0]
	d.advance(1)
	return b
}

func (d *Dec) Bool() bool {
	b := d.Byte()
	if b > 1 {
		d.Fail("bool")
	}
	return b == 1
}

func (d *Dec) I32() int32 {
	v := d.I64()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.Fail("int32 range")
		return 0
	}
	return int32(v)
}

func (d *Dec) Int() int     { return int(d.I64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Count decodes a collection length, bounded both by an explicit limit
// and by the bytes remaining (each element costs at least one byte), so
// a hostile length cannot trigger a huge allocation. After a failure it
// is zero, so element loops do not run.
func (d *Dec) Count(limit int) int {
	v := d.U64()
	if v > uint64(limit) || v > uint64(len(d.B)) {
		d.Fail(fmt.Sprintf("count %d exceeds limit", v))
		return 0
	}
	return int(v)
}

// Bytes consumes the next n bytes (aliasing the input).
func (d *Dec) Bytes(n int, what string) []byte {
	if len(d.B) < n {
		d.Fail(what)
		return nil
	}
	b := d.B[:n]
	d.advance(n)
	return b
}

func (d *Dec) Str() string { return string(d.Bytes(d.Count(1<<20), "string bytes")) }

func (d *Dec) Value() ops5.Value {
	switch kind := d.Byte(); ops5.Kind(kind) {
	case ops5.KindNil:
	case ops5.KindSym:
		return ops5.S(d.Str())
	case ops5.KindNum:
		return ops5.N(d.F64())
	default:
		d.Fail(fmt.Sprintf("value kind %d", kind))
	}
	return ops5.Value{}
}

// Done reports the decode's outcome: the sticky error, or trailing
// bytes.
func (d *Dec) Done() error {
	if len(d.B) != 0 {
		d.Fail(fmt.Sprintf("%d trailing bytes", len(d.B)))
	}
	return d.Err
}
