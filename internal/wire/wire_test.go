package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
)

// TestRoundTrip writes one of everything and reads it back to the last
// byte.
func TestRoundTrip(t *testing.T) {
	var e Enc
	e.U64(math.MaxUint64)
	e.I64(math.MinInt64)
	e.Byte(0xfe)
	e.Bool(true)
	e.Bool(false)
	e.Int(-7)
	e.I32(math.MinInt32)
	e.Count(3)
	e.Str("héllo")
	e.F64(-0.5)
	e.Raw([]byte{1, 2, 3})
	vals := []ops5.Value{{}, ops5.S("sym"), ops5.N(42.25)}
	for _, v := range vals {
		e.Value(v)
	}

	d := Dec{B: e.Buf}
	ok := d.U64() == math.MaxUint64 && d.I64() == math.MinInt64 && d.Byte() == 0xfe && d.Bool() && !d.Bool() &&
		d.Int() == -7 && d.I32() == math.MinInt32 && d.Count(3) == 3 && d.Str() == "héllo" && d.F64() == -0.5 &&
		string(d.Bytes(3, "raw")) == "\x01\x02\x03"
	for _, v := range vals {
		ok = ok && d.Value().Equal(v)
	}
	if err := d.Done(); !ok || err != nil || d.Off != len(e.Buf) {
		t.Fatalf("round trip: ok=%v err=%v, read %d of %d bytes", ok, err, d.Off, len(e.Buf))
	}
}

// TestStickyFailure: the first failure is the one reported, wraps
// ErrBadPayload and names its offset; every read after it yields zero,
// so a decoder may read on and check once.
func TestStickyFailure(t *testing.T) {
	rows := []struct {
		name    string
		payload []byte
		read    func(d *Dec)
		want    string
	}{
		{"empty-uvarint", nil, func(d *Dec) { d.U64() }, "uvarint at offset 0"},
		{"overlong-varint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, func(d *Dec) { d.I64() }, "varint at offset 0"},
		{"bool-of-2", []byte{2}, func(d *Dec) { d.Bool() }, "bool at offset 1"},
		{"int32-range", binary.AppendVarint(nil, math.MaxInt32+1), func(d *Dec) { d.I32() }, "int32 range"},
		{"count-over-limit", []byte{5, 0, 0, 0, 0, 0}, func(d *Dec) { d.Count(4) }, "count 5 exceeds limit"},
		{"count-over-payload", []byte{5, 0, 0, 0, 0}, func(d *Dec) { d.Count(1 << 20) }, "count 5 exceeds limit at offset 1"},
		{"short-bytes", []byte{1, 2}, func(d *Dec) { d.Bytes(3, "three bytes") }, "three bytes at offset 0"},
		{"value-kind", []byte{9}, func(d *Dec) { d.Value() }, "value kind 9"},
		{"trailing", []byte{0, 0}, func(d *Dec) { d.Byte() }, "1 trailing bytes at offset 1"},
		{"first-wins", []byte{2, 0xff}, func(d *Dec) { d.Bool(); d.Fail("later") }, "bool at offset 1"},
	}
	for _, row := range rows {
		d := Dec{B: row.payload}
		row.read(&d)
		err := d.Done()
		if !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: got %v, want ErrBadPayload saying %q", row.name, err, row.want)
		}
		if d.U64() != 0 || d.Str() != "" || d.Count(10) != 0 || !d.Value().Nil() || d.Done() != err {
			t.Errorf("%s: reads after the failure are not zero, or the error moved", row.name)
		}
	}
}
