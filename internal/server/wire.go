package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
)

const (
	// maxBodyBytes caps a request body; a longer one is answered 413. A
	// body is read whole before it is decoded, and the cap is what makes
	// that safe. 1 MiB is some twenty thousand wmes of OPS5 source in one
	// assert, over a hundred times the largest seed bundled (queens,
	// 7.5 KB): it turns away mistakes and abuse, not workloads.
	maxBodyBytes = 1 << 20
	// maxPooledBytes is the largest buffer the pool keeps. 64 KiB holds a
	// snapshot of some five hundred wmes; a buffer one huge body or reply
	// grew past that is left to the collector, so that one outlier does
	// not pin its size for as long as the process lives.
	maxPooledBytes = 64 << 10
)

// jsonContentType is every JSON body's Content-Type header value, at
// both ends: assigned into the header map as it is, where Header.Set
// would allocate a one-element slice per call. Read-only.
var jsonContentType = []string{"application/json"}

// buffer is the one buffer a body passes through, at both ends: a
// request or a reply is read into it whole and decoded from its bytes, a
// reply is rendered into it and written with one Write. Nothing decoded
// aliases it (json.Unmarshal copies strings), so whoever took it with
// getBuf hands it back with putBuf when the function that took it
// returns.
type buffer struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return &buffer{b: make([]byte, 0, 4096)} }}

func getBuf() *buffer { return bufPool.Get().(*buffer) }

func putBuf(buf *buffer) {
	if cap(buf.b) > maxPooledBytes {
		return
	}
	buf.b = buf.b[:0]
	bufPool.Put(buf)
}

// readFrom appends everything r has to the buffer (io.ReadAll's loop,
// into storage that is reused).
func (buf *buffer) readFrom(r io.Reader) error {
	b := buf.b
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			buf.b = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// decodeBody parses a JSON request body into v; an empty body leaves v
// zero. The body is one JSON value and nothing after it. It writes the
// error reply and returns false when the body is over maxBodyBytes
// (413) or is not that (400).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := getBuf()
	defer putBuf(buf)
	if err := buf.readFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		status := http.StatusBadRequest
		var tooLong *http.MaxBytesError
		if errors.As(err, &tooLong) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "bad request body: %v", err)
		return false
	}
	if len(bytes.TrimLeft(buf.b, " \t\r\n")) == 0 {
		return true
	}
	if err := json.Unmarshal(buf.b, v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// writeBody sends a rendered JSON body: the shared header value, the
// status, one Write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(body)
}

// writeJSON is the reply for every shape that is not appended by hand
// (errors, stats, batch results): encoding/json's text and the newline
// its Encoder would end it with.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		data, _ = json.Marshal(errorResponse{Error: fmt.Sprintf("encode reply: %v", err)})
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.b = append(append(buf.b, data...), '\n')
	writeBody(w, status, buf.b)
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// The appenders below write the replies of fixed shape by hand, byte
// for byte what encoding/json prints for the struct the client decodes
// them into (TestRepliesAreEncodingJSONs holds them to it).

// appendIDs appends the wmes' IDs as a JSON array; null when there are
// none, which is how encoding/json prints the nil slice.
func appendIDs(b []byte, wmes []*ops5.WME) []byte {
	if len(wmes) == 0 {
		return append(b, "null"...)
	}
	for i, w := range wmes {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(w.ID), 10)
	}
	return append(b, ']')
}

// appendInts is appendIDs for a list of ints (never nil where it is
// used: an instantiation's time tags).
func appendInts(b []byte, ns []int) []byte {
	b = append(b, '[')
	for i, n := range ns {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']')
}

// appendRunResult appends a RunResult.
func appendRunResult(b []byte, res RunResult) []byte {
	b = append(b, `{"fired":`...)
	b = strconv.AppendInt(b, int64(res.Fired), 10)
	b = append(b, `,"total_fired":`...)
	b = strconv.AppendInt(b, int64(res.TotalFired), 10)
	b = append(b, `,"halted":`...)
	b = strconv.AppendBool(b, res.Halted)
	if res.CycleLimit {
		b = append(b, `,"cycle_limit":true`...)
	}
	return append(b, '}')
}

// appendSnapshot appends a SnapshotResponse rendered straight from the
// session's rows: no copy of working memory is made and no wme is
// printed into a string of its own. The caller holds the session lock.
func appendSnapshot(b []byte, eng *engine.Session) []byte {
	b = append(b, `{"wmes":[`...)
	first := true
	for w := range eng.LiveWMEs {
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(w.ID), 10)
		b = append(b, `,"time_tag":`...)
		b = strconv.AppendInt(b, int64(w.TimeTag), 10)
		b = append(b, `,"text":"`...)
		text := len(b)
		b = escapeTail(w.AppendText(b), text)
		b = append(b, `"}`...)
	}
	b = append(b, `],"conflict_set":[`...)
	for i, in := range eng.ConflictSet() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"key":"`...)
		key := len(b)
		b = escapeTail(in.AppendKey(b), key)
		b = append(b, `","production":`...)
		b = appendJSONString(b, in.Prod.Name)
		b = append(b, `,"time_tags":`...)
		b = appendInts(b, in.TimeTags)
		b = append(b, '}')
	}
	b = append(b, `],"fired":`...)
	b = strconv.AppendInt(b, int64(eng.Fired()), 10)
	b = append(b, `,"halted":`...)
	b = strconv.AppendBool(b, eng.Halted())
	b = append(b, `,"next_time_tag":`...)
	b = strconv.AppendInt(b, int64(eng.NextTimeTag()), 10)
	return append(b, '}')
}

// appendJSONString appends s as a JSON string.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	text := len(b)
	b = escapeTail(append(b, s...), text)
	return append(b, '"')
}

// escapeTail rewrites b[from:] — raw text just appended — as the inside
// of a JSON string, escaped exactly as encoding/json escapes a string by
// default: the quote, the backslash and control characters; <, > and &
// (its HTML escaping, on unless switched off); U+2028 and U+2029; and a
// byte that is not UTF-8 as U+FFFD. Text with none of those, which is
// nearly all text, is left where it lies and costs one scan. The first
// escape makes a copy of what follows it, since the escaped form would
// overwrite what it has not read yet.
func escapeTail(b []byte, from int) []byte {
	src, inPlace, clean := b[from:], true, 0
	for i := 0; i < len(src); {
		r, size := rune(src[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(src[i:])
		}
		if !jsonEscapes(r, size) {
			i += size
			continue
		}
		if inPlace {
			b, src, i, inPlace = b[:from+i], bytes.Clone(src[i:]), 0, false
		}
		b = append(b, src[clean:i]...)
		b = appendEscape(b, r)
		i += size
		clean = i
	}
	if inPlace {
		return b
	}
	return append(b, src[clean:]...)
}

// jsonEscapes reports whether encoding/json escapes r, decoded from
// size bytes, inside a string.
func jsonEscapes(r rune, size int) bool {
	switch r {
	case '"', '\\', '<', '>', '&', '\u2028', '\u2029':
		return true
	case utf8.RuneError:
		return size == 1 // a byte that is not UTF-8; U+FFFD itself passes
	}
	return r < 0x20
}

// appendEscape appends the escape of a rune jsonEscapes picked out.
func appendEscape(b []byte, r rune) []byte {
	const hex = "0123456789abcdef"
	switch r {
	case '"', '\\':
		return append(b, '\\', byte(r))
	case '\b':
		return append(b, '\\', 'b')
	case '\f':
		return append(b, '\\', 'f')
	case '\n':
		return append(b, '\\', 'n')
	case '\r':
		return append(b, '\\', 'r')
	case '\t':
		return append(b, '\\', 't')
	case utf8.RuneError:
		return append(b, `\ufffd`...)
	case '\u2028', '\u2029':
		return append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
	}
	return append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xF])
}
