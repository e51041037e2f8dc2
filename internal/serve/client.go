package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to a running bufinsd. The zero HTTP client gets a generous
// timeout — cold prepares on the big circuits take seconds.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8077"
	HTTP *http.Client

	// ctx bounds every request (nil = context.Background); set it with
	// WithContext.
	ctx context.Context
}

// NewClient builds a client for a server base URL.
func NewClient(base string) *Client {
	return &Client{
		Base: strings.TrimRight(base, "/"),
		HTTP: &http.Client{Timeout: 10 * time.Minute},
	}
}

// WithContext returns a copy of c whose requests are bound to ctx:
// cancelling ctx aborts the in-flight request (the daemon sees the hang-up
// and releases its work) and fails every later one without dialing.
func (c *Client) WithContext(ctx context.Context) *Client {
	cc := *c
	cc.ctx = ctx
	return &cc
}

func (c *Client) context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// post sends one JSON request and decodes the JSON response into out.
// Non-2xx responses surface the server's error message.
func (c *Client) post(path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(c.context(), http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("serve: POST %s: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(hreq)
	if err != nil {
		return fmt.Errorf("serve: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("serve: reading %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("serve: %s: %s (HTTP %d)", path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("serve: %s: HTTP %d", path, resp.StatusCode)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("serve: decoding %s response: %w", path, err)
	}
	return nil
}

// Prepare warms the server's bench cache.
func (c *Client) Prepare(req PrepareRequest) (*PrepareResponse, error) {
	var out PrepareResponse
	if err := c.post("/v1/prepare", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Insert runs (or replays) the insertion flow server-side.
func (c *Client) Insert(req InsertRequest) (*InsertResponse, error) {
	var out InsertResponse
	if err := c.post("/v1/insert", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Yield evaluates a batch of yield queries server-side.
func (c *Client) Yield(req YieldRequest) (*YieldResponse, error) {
	var out YieldResponse
	if err := c.post("/v1/yield", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes /healthz.
func (c *Client) Health() error {
	req, err := http.NewRequestWithContext(c.context(), http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}
