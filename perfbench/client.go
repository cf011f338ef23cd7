package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// pool is the load generator's set of HTTP clients: one keep-alive
// connection per client, each client used by exactly one goroutine. dials
// counts every TCP connection opened, so a run can show it stayed within
// its connection budget.
type pool struct {
	clients []*http.Client
	dials   atomic.Int64
}

func newPool(n int) *pool {
	p := &pool{}
	for i := 0; i < n; i++ {
		tr := &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				p.dials.Add(1)
				var d net.Dialer
				return d.DialContext(ctx, network, addr)
			},
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		}
		p.clients = append(p.clients, &http.Client{Transport: tr, Timeout: time.Minute})
	}
	return p
}

// close drops the pool's idle connections.
func (p *pool) close() {
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
}

// call is one recorded HTTP exchange. status 0 means a transport error.
type call struct {
	status int
	body   []byte
	// sent and done are offsets from the phase start.
	sent, done time.Duration
}

// do sends body (the concatenation of parts, which are never copied) with
// method to url and reads the whole response.
func do(c *http.Client, method, url string, parts ...[]byte) (int, []byte) {
	var body io.Reader
	n := 0
	if len(parts) > 0 {
		readers := make([]io.Reader, len(parts))
		for i, p := range parts {
			readers[i] = bytes.NewReader(p)
			n += len(p)
		}
		body = io.MultiReader(readers...)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, nil
	}
	if body != nil {
		req.ContentLength = int64(n)
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, data
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
