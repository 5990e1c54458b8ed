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

	"datastaging/internal/obs/lifecycle"
)

// Client is a typed client for the stagesvc HTTP API, used by the load
// generator and the end-to-end tests. Zero-value-safe apart from BaseURL.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
}

// ErrStatus is a non-2xx API response.
type ErrStatus struct {
	Code int
	// RetryAfter echoes the Retry-After header on 429 responses.
	RetryAfter time.Duration
	Message    string
}

func (e *ErrStatus) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Code, e.Message)
}

// IsOverloaded reports whether the server shed the request with 429.
func (e *ErrStatus) IsOverloaded() bool { return e.Code == http.StatusTooManyRequests }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(c.BaseURL, "/")+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		st := &ErrStatus{Code: resp.StatusCode}
		if ra, err := time.ParseDuration(resp.Header.Get("Retry-After") + "s"); err == nil {
			st.RetryAfter = ra
		}
		var eb errorBody
		if json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&eb) == nil && eb.Error != "" {
			st.Message = eb.Error
		} else {
			st.Message = resp.Status
		}
		return st
	}
	if out == nil {
		return nil
	}
	// No size cap here: maxBodyBytes bounds what a client may send, and a
	// schedule document grows with the committed history.
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a submission; when wait is true the call blocks until the
// admission epoch decides and the returned view carries the verdict.
func (c *Client) Submit(ctx context.Context, sub Submission, wait bool) (TicketView, error) {
	path := "/v1/requests"
	if wait {
		path += "?wait=1"
	}
	var v TicketView
	err := c.do(ctx, http.MethodPost, path, sub, &v)
	return v, err
}

// Ticket fetches one submission's current verdict.
func (c *Client) Ticket(ctx context.Context, id string) (TicketView, error) {
	var v TicketView
	err := c.do(ctx, http.MethodGet, "/v1/requests/"+id, nil, &v)
	return v, err
}

// Audit fetches and validates the service's whole audit log (the /v1/audit
// JSONL stream).
func (c *Client) Audit(ctx context.Context) ([]lifecycle.Record, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(c.BaseURL, "/")+"/v1/audit", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &ErrStatus{Code: resp.StatusCode, Message: resp.Status}
	}
	return lifecycle.ReadJSONL(resp.Body)
}

// Schedule fetches the committed-schedule snapshot.
func (c *Client) Schedule(ctx context.Context) (ScheduleView, error) {
	var v ScheduleView
	err := c.do(ctx, http.MethodGet, "/v1/schedule", nil, &v)
	return v, err
}

// Advance moves the service's virtual clock (virtual-clock mode only) and
// returns the service description after the flush.
func (c *Client) Advance(ctx context.Context, to Instant) (Info, error) {
	var v Info
	err := c.do(ctx, http.MethodPost, "/v1/advance", advanceBody{To: to}, &v)
	return v, err
}

// Info fetches the service description.
func (c *Client) Info(ctx context.Context) (Info, error) {
	var v Info
	err := c.do(ctx, http.MethodGet, "/v1/info", nil, &v)
	return v, err
}
