package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// client is the load generator's HTTP side: one keep-alive transport sized
// to the connection budget, with every TCP dial counted, so a run that
// opens more connections than it has clients is caught.
type client struct {
	base  string
	hc    *http.Client
	dials atomic.Int64
}

func newClient(addr string, conns int) *client {
	c := &client{base: "http://" + addr}
	d := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, a)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	c.hc = &http.Client{Transport: tr, Timeout: time.Minute}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one JSON request and reads the whole response, so the
// connection goes back to the pool.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	return c.send(method, path, "application/json", body)
}

func (c *client) send(method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// result is one operation's outcome. Times are offsets from the start of
// the timed window.
type result struct {
	sent, done time.Duration
	status     int
	err        string
	body       []byte
}

func (r result) ok() bool { return r.err == "" && r.status == http.StatusOK }

// latencyMS is the time from send to answer.
func (r result) latencyMS() float64 { return float64(r.done-r.sent) / 1e6 }

// doer carries out op i and returns its status and response body.
type doer func(i int, o op) (int, []byte, error)

// httpDoer sends ops to wasod over c.
func httpDoer(c *client) doer {
	return func(_ int, o op) (int, []byte, error) {
		method, path := pathFor(o.kind)
		return c.do(method, path, o.body)
	}
}

// drive carries out ops one after another in a closed loop: each op is
// sent as soon as the last one is answered. Ops not yet started at
// deadline are recorded as failed.
func drive(do doer, ops []op, t0, deadline time.Time) []result {
	res := make([]result, len(ops))
	for i, o := range ops {
		res[i] = send(do, i, o, t0, deadline)
	}
	return res
}

func send(do doer, i int, o op, t0, deadline time.Time) result {
	now := time.Now()
	r := result{sent: now.Sub(t0)}
	if now.After(deadline) {
		r.done, r.err = r.sent, "not sent before the run deadline"
		return r
	}
	status, body, err := do(i, o)
	r.done = time.Since(t0)
	r.status, r.body = status, body
	if err != nil {
		r.err = err.Error()
	} else if status != http.StatusOK {
		r.err = fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	return r
}

// pathFor is the route an op kind is sent to.
func pathFor(k opKind) (method, path string) {
	if k == opPatch {
		return http.MethodPatch, "/v1/graphs/" + graphID
	}
	return http.MethodPost, "/v1/solve"
}
