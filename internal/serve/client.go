package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client is a thin typed wrapper over the control-plane API, used by
// odin-ctl and the tests.
type Client struct {
	// Base is the daemon's root URL, e.g. "http://127.0.0.1:9180".
	Base string
	// Tenant is sent as the X-Odin-Tenant header ("" = anonymous).
	Tenant string
	// HTTP overrides the transport (nil = a client with a 60s timeout).
	HTTP *http.Client
}

// APIError is a non-2xx control-plane response.
type APIError struct {
	Status     int
	Code       string
	Msg        string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: %d %s: %s", e.Status, e.Code, e.Msg)
}

// Temporary reports whether the error is a shed/backpressure verdict worth
// retrying after RetryAfter.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 60 * time.Second}
}

// do runs one request and decodes the JSON response into out (skipped when
// out is nil). Non-2xx responses return *APIError.
func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode}
		var env apiError
		if json.NewDecoder(resp.Body).Decode(&env) == nil {
			apiErr.Code = env.Code
			apiErr.Msg = env.Error
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Fleet fetches the fleet snapshot.
func (c *Client) Fleet() (FleetSnapshot, error) {
	var snap FleetSnapshot
	err := c.do(http.MethodGet, "/v1/fleet", nil, &snap)
	return snap, err
}

// Shards lists the hosted shards.
func (c *Client) Shards() ([]ShardInfo, error) {
	var out []ShardInfo
	err := c.do(http.MethodGet, "/v1/shards", nil, &out)
	return out, err
}

// Functions lists a shard's instrumentable functions.
func (c *Client) Functions(shard string) ([]string, error) {
	var out []string
	err := c.do(http.MethodGet, "/v1/shards/"+shard+"/functions", nil, &out)
	return out, err
}

// AddProbe registers and activates a probe on a shard.
func (c *Client) AddProbe(shard string, spec ProbeSpec) (ProbeResult, error) {
	var res ProbeResult
	err := c.do(http.MethodPost, "/v1/shards/"+shard+"/probes", spec, &res)
	return res, err
}

// ProbeAction applies enable, remove, or change to an owned probe.
func (c *Client) ProbeAction(shard string, id int64, action string) (ProbeResult, error) {
	var res ProbeResult
	err := c.do(http.MethodPost,
		fmt.Sprintf("/v1/shards/%s/probes/%d/%s", shard, id, action), nil, &res)
	return res, err
}

// Sync runs a generation barrier on a shard.
func (c *Client) Sync(shard string) (ProbeResult, error) {
	var res ProbeResult
	err := c.do(http.MethodPost, "/v1/shards/"+shard+"/sync", nil, &res)
	return res, err
}

// Metrics fetches the fleet-aggregated Prometheus exposition.
func (c *Client) Metrics() (string, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Code: "metrics", Msg: resp.Status}
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
