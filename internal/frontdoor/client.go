package frontdoor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/elasticflow/elasticflow/internal/serverless"
)

// Client is a Go client for the front door's /v1/jobs surface, the
// programmatic counterpart to submitting serverless functions by hand.
type Client struct {
	// BaseURL is the server address, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient overrides the transport; http.DefaultClient when nil.
	HTTPClient *http.Client
}

// NewClient creates a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError is the error the server returns in an {"error": ...} body.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("frontdoor: server returned %d: %s", e.Status, e.Msg)
}

// IsDropped reports whether err is the admission-control rejection of a
// submission (HTTP 409): the job's deadline could not be guaranteed.
func IsDropped(err error) bool {
	ae, ok := err.(*apiError)
	return ok && ae.Status == http.StatusConflict
}

func (c *Client) do(method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
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
	if resp.StatusCode == http.StatusConflict && out != nil {
		// The server returns the dropped job's status on 409.
		_ = json.NewDecoder(resp.Body).Decode(out)
		return &apiError{Status: resp.StatusCode, Msg: "submission dropped by admission control"}
	}
	if resp.StatusCode >= 400 {
		var eb serverless.ErrorBody
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return &apiError{Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit submits a training function. On an admission-control rejection the
// returned error satisfies IsDropped and the status still describes the
// dropped job.
func (c *Client) Submit(req serverless.SubmitRequest) (serverless.JobStatus, error) {
	var st serverless.JobStatus
	err := c.do(http.MethodPost, "/v1/jobs", req, &st)
	if err != nil && !IsDropped(err) {
		return serverless.JobStatus{}, err
	}
	return st, err
}

// Get fetches one job's status.
func (c *Client) Get(id string) (serverless.JobStatus, error) {
	var st serverless.JobStatus
	err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// List fetches all jobs.
func (c *Client) List() ([]serverless.JobStatus, error) {
	var out []serverless.JobStatus
	err := c.do(http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel removes a job.
func (c *Client) Cancel(id string) error {
	return c.do(http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}
