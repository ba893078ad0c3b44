package mapsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/server"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// Wire types shared with the mapsd service (internal/server).
type (
	// JobRequest is the body of POST /v1/jobs.
	JobRequest = server.JobRequest
	// JobStatus describes a submitted job.
	JobStatus = server.JobStatus
	// JobResult carries a finished job's result.
	JobResult = server.JobResult
	// JobProgress reports how far a running job's simulation has come.
	JobProgress = server.JobProgress
	// ConfigSpec is the JSON-expressible subset of Config.
	ConfigSpec = server.ConfigSpec
	// MetaSpec is the wire form of the metadata-cache config.
	MetaSpec = server.MetaSpec
	// ByteSize is the wire form of capacities: JSON numbers or
	// suffixed strings like "64KB".
	ByteSize = server.ByteSize
	// JobState is a job's lifecycle position.
	JobState = jobs.State
	// SweepRequest is the body of POST /v1/sweeps: a base config plus
	// the axes that vary.
	SweepRequest = server.SweepRequest
	// SweepAxes declares a sweep's dimensions.
	SweepAxes = server.SweepAxes
	// SweepIntAxis is a byte-size axis: explicit points or a range.
	SweepIntAxis = server.SweepIntAxis
	// SweepStatus reports a sweep's per-point completion counts.
	SweepStatus = server.SweepStatus
	// SweepResult is a completed sweep: points in grid order plus
	// per-axis geomeans and a rendered pivot table.
	SweepResult = sweep.Result
	// SweepPointResult pairs one grid point with its result.
	SweepPointResult = sweep.PointResult
)

// Job types and states.
const (
	JobRun = server.TypeRun

	JobQueued   = jobs.StateQueued
	JobRunning  = jobs.StateRunning
	JobDone     = jobs.StateDone
	JobFailed   = jobs.StateFailed
	JobCanceled = jobs.StateCanceled
)

// Client talks to a mapsd daemon. Requests that fail transiently —
// network errors, 429 (shed), 502/503/504 — are retried with
// exponential backoff and full jitter, honoring any Retry-After the
// daemon sent. Retrying POST /v1/jobs is safe: the daemon
// deduplicates submissions by the canonical config hash, so a retry
// whose first attempt actually landed joins the in-flight job instead
// of starting a second simulation.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8750".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// PollInterval paces Wait (default 250ms).
	PollInterval time.Duration
	// MaxRetries bounds retries per request beyond the first attempt
	// (default 3; negative disables retrying).
	MaxRetries int
	// RetryBase is the backoff scale: attempt n waits a uniformly
	// random duration in [0, RetryBase<<n] (default 100ms).
	RetryBase time.Duration
	// RetryMax caps a single backoff sleep, including server-directed
	// Retry-After waits (default 5s).
	RetryMax time.Duration

	retries atomic.Uint64
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIError is a non-2xx response from the daemon.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the daemon's Retry-After hint (zero when absent):
	// how long it asked the client to back off before retrying.
	RetryAfter time.Duration
}

// Error renders the status code and the daemon's error message.
func (e *APIError) Error() string {
	return fmt.Sprintf("mapsd: %d: %s", e.StatusCode, e.Message)
}

// Retries returns how many request retries this client has performed,
// across all calls — each increment is one repeated HTTP attempt after
// a transient failure.
func (c *Client) Retries() uint64 {
	return c.retries.Load()
}

// retryableStatus reports whether a response status signals a
// transient condition worth retrying: the daemon shedding load (429)
// or an intermediary/daemon outage (502/503/504).
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// parseRetryAfter reads a Retry-After header: either delay-seconds or
// an HTTP-date. Returns zero when absent or unparseable.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// do runs one API call with retries. The body is marshaled once and
// replayed per attempt. Attempt n backs off a uniformly random
// duration in [0, RetryBase<<n] (full jitter — concurrent clients
// decorrelate instead of retrying in lockstep), except that a
// server-provided Retry-After is used verbatim; both are capped at
// RetryMax. Context errors are never retried.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
	}
	maxRetries := c.MaxRetries
	if maxRetries == 0 {
		maxRetries = 3
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	base := c.RetryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxWait := c.RetryMax
	if maxWait <= 0 {
		maxWait = 5 * time.Second
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = c.once(ctx, method, path, buf, out)
		if err == nil || attempt >= maxRetries || ctx.Err() != nil {
			return err
		}
		wait := time.Duration(0)
		if apiErr, ok := err.(*APIError); ok {
			if !retryableStatus(apiErr.StatusCode) {
				return err
			}
			wait = apiErr.RetryAfter
		}
		if wait == 0 {
			wait = time.Duration(rand.Int64N(int64(base<<attempt) + 1))
		}
		if wait > maxWait {
			wait = maxWait
		}
		c.retries.Add(1)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// once performs a single HTTP attempt.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer closeBody(resp.Body)
	if resp.StatusCode >= 300 {
		var apiErr struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		ae := &APIError{StatusCode: resp.StatusCode, Message: string(msg), RetryAfter: parseRetryAfter(resp.Header)}
		if json.Unmarshal(msg, &apiErr) == nil && apiErr.Error != "" {
			ae.Message = apiErr.Error
		}
		return ae
	}
	if out == nil {
		return nil
	}
	// A reply type with its own decoder (a sweep Result) gets the
	// whole body in one call: through json.Decoder the body would be
	// scanned once to find the value and again before the method.
	if u, ok := out.(json.Unmarshaler); ok {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return u.UnmarshalJSON(data)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job and returns its status — already done when the
// daemon answered from its result cache (status.CacheHit).
func (c *Client) Submit(ctx context.Context, req JobRequest) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Cancel asks the daemon to stop a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Progress fetches a running job's instruction-level progress:
// monotonically non-decreasing instruction counts, the expected
// total, and a linear time-remaining estimate. Cache-hit jobs report
// Fraction 1 with zero counts.
func (c *Client) Progress(ctx context.Context, id string) (JobProgress, error) {
	var p JobProgress
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/progress", nil, &p)
	return p, err
}

// Wait polls until the job reaches a terminal state or ctx is done.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// Result fetches a finished job's result envelope.
func (c *Client) Result(ctx context.Context, id string) (JobResult, error) {
	var res JobResult
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res)
	return res, err
}

// RunRemote submits a run job, waits for it, and returns the result —
// the remote analogue of Run.
func (c *Client) RunRemote(ctx context.Context, spec ConfigSpec) (*Result, error) {
	st, err := c.Submit(ctx, JobRequest{Type: JobRun, Config: spec})
	if err != nil {
		return nil, err
	}
	return c.runResult(ctx, st)
}

func (c *Client) runResult(ctx context.Context, st JobStatus) (*Result, error) {
	var err error
	if st, err = c.awaitDone(ctx, st); err != nil {
		return nil, err
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	if res.Run == nil {
		return nil, fmt.Errorf("mapsim: job %s returned no run result", st.ID)
	}
	return res.Run, nil
}

func (c *Client) awaitDone(ctx context.Context, st JobStatus) (JobStatus, error) {
	if !st.State.Terminal() {
		var err error
		if st, err = c.Wait(ctx, st.ID); err != nil {
			return st, err
		}
	}
	if st.State != JobDone {
		return st, fmt.Errorf("mapsim: job %s %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}

// Sweep submits a parameter sweep and returns its initial status
// (Total already reflects the expanded grid size).
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &st)
	return st, err
}

// SweepProgress streams a sweep's per-point completion counts: the
// daemon pushes one status line per completed point (NDJSON over
// ?watch=1), onUpdate observes each, and the terminal status is
// returned. A nil onUpdate just waits for the terminal status.
//
// The watch stream survives transient disconnects — a dropped
// connection, a daemon restart, a shedding 429/503 — by reconnecting
// with the client's usual full-jitter backoff (honoring Retry-After)
// and resuming from the last-seen done-count, so onUpdate never
// observes progress running backwards across a reconnect. Only a
// non-retryable API error (e.g. 404 after the sweep was evicted), a
// canceled context, or MaxRetries consecutive dead connections with
// no progress between them ends the watch early; the last of those
// falls back to plain status polling.
func (c *Client) SweepProgress(ctx context.Context, id string, onUpdate func(SweepStatus)) (SweepStatus, error) {
	var last SweepStatus
	seen := false
	maxRetries := c.MaxRetries
	if maxRetries == 0 {
		maxRetries = 3
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	base := c.RetryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxWait := c.RetryMax
	if maxWait <= 0 {
		maxWait = 5 * time.Second
	}
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		st, progressed, err := c.watchSweep(ctx, id, &last, &seen, onUpdate)
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return last, ctx.Err()
		}
		wait := time.Duration(0)
		if apiErr, ok := err.(*APIError); ok {
			if !retryableStatus(apiErr.StatusCode) {
				return last, apiErr
			}
			wait = apiErr.RetryAfter
		}
		// A connection that delivered lines before dying is a live
		// stream hiccup, not a failing endpoint: reset the budget.
		if progressed {
			failures = 0
		}
		if failures >= maxRetries {
			// Out of reconnect budget; hand off to plain polling so a
			// watch over a flaky path still resolves the sweep.
			return c.SweepWait(ctx, id)
		}
		if wait == 0 {
			wait = time.Duration(rand.Int64N(int64(base<<failures) + 1))
		}
		if wait > maxWait {
			wait = maxWait
		}
		failures++
		c.retries.Add(1)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return last, ctx.Err()
		}
	}
}

// watchSweep runs one ?watch=1 connection. It feeds onUpdate only
// statuses that advance the last-seen done-count (or are terminal, or
// are the first ever seen), updating *last as it goes, and returns
// the terminal status with a nil error when the sweep finishes. Any
// other outcome — transport error, bad status, stream ended without a
// terminal line — returns an error plus whether this connection made
// observable progress.
func (c *Client) watchSweep(ctx context.Context, id string, last *SweepStatus, seen *bool, onUpdate func(SweepStatus)) (SweepStatus, bool, error) {
	progressed := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/sweeps/"+id+"?watch=1", nil)
	if err != nil {
		return *last, false, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return *last, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		ae := &APIError{StatusCode: resp.StatusCode, Message: string(msg), RetryAfter: parseRetryAfter(resp.Header)}
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(msg, &apiErr) == nil && apiErr.Error != "" {
			ae.Message = apiErr.Error
		}
		return *last, false, ae
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var st SweepStatus
		if err := dec.Decode(&st); err != nil {
			if err == io.EOF {
				// Clean EOF without a terminal line: daemon restart or
				// proxy timeout — reconnect.
				err = io.ErrUnexpectedEOF
			}
			return *last, progressed, err
		}
		progressed = true
		// A fresh connection replays the current status; suppress
		// updates that don't advance past what an earlier connection
		// already delivered.
		if *seen && st.Done <= last.Done && !st.State.Terminal() {
			continue
		}
		*seen = true
		*last = st
		if onUpdate != nil {
			onUpdate(st)
		}
		if st.State.Terminal() {
			// The daemon closes the stream after the terminal line;
			// reading to that end keeps the connection. Earlier
			// returns must not drain: the stream may still be open.
			_, _ = io.CopyN(io.Discard, resp.Body, maxDrain)
			return st, progressed, nil
		}
	}
}

// maxDrain bounds the unread remainder a client reads to keep a
// connection alive; past it a fresh dial is cheaper.
const maxDrain = 64 << 10

// closeBody drains the rest of a complete response body, up to
// maxDrain, then closes it: the transport reuses a connection only
// after its body was read to EOF, and a JSON decoder stops at the end
// of its value, before the trailing newline and chunk terminator. A
// failed drain costs only the connection.
func closeBody(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, maxDrain)
	body.Close()
}

// SweepStatus fetches a sweep's current status by ID.
func (c *Client) SweepStatus(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st)
	return st, err
}

// SweepWait polls until the sweep reaches a terminal state.
func (c *Client) SweepWait(ctx context.Context, id string) (SweepStatus, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	for {
		var st SweepStatus
		if err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st); err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// SweepResultRemote fetches a finished sweep's full result.
func (c *Client) SweepResultRemote(ctx context.Context, id string) (*SweepResult, error) {
	var res SweepResult
	if err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// RunSweepRemote submits a sweep, streams progress through onUpdate
// (which may be nil), and returns the completed result — the remote
// analogue of fleet.RunLocal. A sweep the daemon's store answers whole
// is already done in the submit reply, which then is onUpdate's only
// line and skips the progress stream.
func (c *Client) RunSweepRemote(ctx context.Context, req SweepRequest, onUpdate func(SweepStatus)) (*SweepResult, error) {
	st, err := c.Sweep(ctx, req)
	if err != nil {
		return nil, err
	}
	if !st.State.Terminal() {
		if st, err = c.SweepProgress(ctx, st.ID, onUpdate); err != nil {
			return nil, err
		}
	} else if onUpdate != nil {
		onUpdate(st)
	}
	if st.State != JobDone {
		return nil, fmt.Errorf("mapsim: sweep %s %s: %s", st.ID, st.State, st.Error)
	}
	return c.SweepResultRemote(ctx, st.ID)
}

// ResumeSweep reattaches to a sweep by ID — typically one submitted
// before a daemon restart and recovered from its journal — streams
// progress through onUpdate (which may be nil), and returns the
// completed result. An unfinished sweep keeps its ID across restarts
// when the daemon runs with -journal-dir, so the ID from the original
// submission keeps working after a crash. A sweep that finished before
// the restart is not reinstalled: its ID answers 404 (no later sweep
// reuses it), and resubmitting its spec serves it from the store.
func (c *Client) ResumeSweep(ctx context.Context, id string, onUpdate func(SweepStatus)) (*SweepResult, error) {
	st, err := c.SweepProgress(ctx, id, onUpdate)
	if err != nil {
		return nil, err
	}
	if st.State != JobDone {
		return nil, fmt.Errorf("mapsim: sweep %s %s: %s", st.ID, st.State, st.Error)
	}
	return c.SweepResultRemote(ctx, st.ID)
}

// StoreFetch fetches the raw result-store envelope for a content
// key (GET /v1/store/{key}) — the verb mapsd peers use to fill local
// store misses from each other. The bytes are a store.Envelope JSON
// document; a daemon that doesn't hold the key locally answers 404
// (an *APIError, not retried).
func (c *Client) StoreFetch(ctx context.Context, key string) ([]byte, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/store/"+key, nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// RemoteBenchmarks lists the benchmarks the daemon serves.
func (c *Client) RemoteBenchmarks(ctx context.Context) ([]string, error) {
	var out map[string][]string
	if err := c.do(ctx, http.MethodGet, "/v1/benchmarks", nil, &out); err != nil {
		return nil, err
	}
	return out["benchmarks"], nil
}
