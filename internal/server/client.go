package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"mpcrete/internal/engine"
)

// Client is a typed HTTP client for the ops5d wire protocol, used by
// cmd/ops5load, the server benchmarks, and the smoke tests.
type Client struct {
	base *url.URL
	err  error // what parsing base returned; every call reports it
	hc   *http.Client
}

// NewClient targets a server at base (e.g. "http://127.0.0.1:8080").
// hc may be nil for http.DefaultClient. base is parsed here, once; if
// it does not parse, every call returns the error.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	u, err := url.Parse(base)
	return &Client{base: u, err: err, hc: hc}
}

// The two header maps every request is sent under, shared and never
// written: net/http's contract is that a RoundTripper does not modify
// the request it is given, and Client.Do copies the request before it
// adds anything of its own (cookies, basic auth).
var (
	noBodyHeader   = http.Header{}
	jsonBodyHeader = http.Header{"Content-Type": jsonContentType}
)

// call is what one request is made of, allocated as one: the request,
// its URL, and the reader over its body.
type call struct {
	req  http.Request
	url  url.URL
	body bytes.Reader
}

// do issues one JSON request; out may be nil to discard the body.
func (c *Client) do(method, path string, in, out any) error {
	if c.err != nil {
		return c.err
	}
	x := &call{url: *c.base}
	x.url.Path += path
	x.req = http.Request{
		Method: method, URL: &x.url, Host: x.url.Host, Header: noBodyHeader,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	if in != nil {
		// The marshalled bytes are the request's own, not pooled: the
		// transport may still be writing them after Do has returned.
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		// The body is a bytes.Reader behind io.NopCloser and nothing of
		// our own: that is the shape the transport knows to be in memory,
		// and writes out in the same segment as the request head.
		x.body.Reset(data)
		x.req.Body, x.req.ContentLength, x.req.Header = io.NopCloser(&x.body), int64(len(data)), jsonBodyHeader
		// GetBody lets the transport resend a request whose kept-alive
		// connection the server had already closed.
		x.req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
	}
	resp, err := c.hc.Do(&x.req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := getBuf()
	defer putBuf(buf)
	readErr := buf.readFrom(resp.Body)
	if resp.StatusCode >= 300 {
		var e errorResponse
		msg := ""
		if json.Unmarshal(buf.b, &e) == nil {
			msg = ": " + e.Error
		}
		return &StatusError{Code: resp.StatusCode, Msg: fmt.Sprintf("%s %s: %s%s", method, path, resp.Status, msg)}
	}
	if readErr != nil || out == nil {
		return readErr
	}
	return json.Unmarshal(buf.b, out)
}

// StatusError is a non-2xx server response.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string { return e.Msg }

// Open creates a session. seed loads the server workload's default
// wmes; wmes is additional OPS5 wme source (may be empty).
func (c *Client) Open(seed bool, wmes string) (string, error) {
	var resp openResponse
	err := c.do("POST", "/v1/sessions", openRequest{Seed: seed, WMEs: wmes}, &resp)
	return resp.SessionID, err
}

// Close deletes a session.
func (c *Client) Close(id string) error {
	return c.do("DELETE", "/v1/sessions/"+id, nil, nil)
}

// Assert adds wmes (OPS5 source) and returns their assigned IDs.
func (c *Client) Assert(id, wmes string) ([]int, error) {
	var resp assertResponse
	err := c.do("POST", "/v1/sessions/"+id+"/assert", assertRequest{WMEs: wmes}, &resp)
	return resp.IDs, err
}

// Retract removes the wme with the given working-memory ID.
func (c *Client) Retract(id string, wmeID int) (bool, error) {
	var resp struct {
		Removed bool `json:"removed"`
	}
	err := c.do("POST", "/v1/sessions/"+id+"/retract", retractRequest{ID: wmeID}, &resp)
	return resp.Removed, err
}

// Run fires MRA cycles (maxCycles <= 0 uses the server default).
func (c *Client) Run(id string, maxCycles int) (RunResult, error) {
	var resp RunResult
	err := c.do("POST", "/v1/sessions/"+id+"/run", runRequest{MaxCycles: maxCycles}, &resp)
	return resp, err
}

// Batch executes a sequence of ops in one round trip.
func (c *Client) Batch(id string, ops []BatchOp) ([]BatchOpResult, error) {
	var resp []BatchOpResult
	err := c.do("POST", "/v1/sessions/"+id+"/batch", ops, &resp)
	return resp, err
}

// Snapshot fetches the session's full observable state.
func (c *Client) Snapshot(id string) (*SnapshotResponse, error) {
	resp := &SnapshotResponse{}
	err := c.do("GET", "/v1/sessions/"+id+"/snapshot", nil, resp)
	return resp, err
}

// ConflictSet fetches just the session's conflict set, best-first.
func (c *Client) ConflictSet(id string) ([]engine.SnapshotInst, error) {
	snap, err := c.Snapshot(id)
	if err != nil {
		return nil, err
	}
	return snap.ConflictSet, nil
}

// Stats fetches the server-level counters.
func (c *Client) Stats() (Stats, error) {
	var resp Stats
	err := c.do("GET", "/v1/stats", nil, &resp)
	return resp, err
}

// Healthy reports whether /healthz returns 200.
func (c *Client) Healthy() bool {
	return c.do("GET", "/healthz", nil, nil) == nil
}
