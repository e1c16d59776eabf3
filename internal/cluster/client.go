package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"eul3d/internal/serve"
)

// nodeClient speaks the eul3dd HTTP API for one node. Every call is
// bounded by timeout on top of the caller's context, so a wedged node
// can't stall the health or watch loops.
type nodeClient struct {
	base    string // e.g. http://127.0.0.1:8081
	hc      *http.Client
	timeout time.Duration
}

func newNodeClient(base string, hc *http.Client, timeout time.Duration) *nodeClient {
	return &nodeClient{base: base, hc: hc, timeout: timeout}
}

// Body-size caps per kind of answer. Job views carry the residual
// history, so they are bounded like checkpoints.
const (
	maxProbeBody    = 1 << 16
	maxJobBody      = 64 << 20
	maxArtifactBody = 256 << 20
	maxErrorQuote   = 1 << 12 // of a refusal's body quoted in the error
)

// reply is a node's answer to one call.
type reply struct {
	from  string        // method and URL, for error text
	code  int           // HTTP status
	after time.Duration // Retry-After hint (0 when absent or malformed; eul3dd only sends delta-seconds)
	body  []byte
}

// do issues one request and reads the whole answer, up to limit body
// bytes. Its error is a transport failure; what an HTTP status means is
// the caller's to judge. Every coordinator→node call goes through here.
func (nc *nodeClient) do(ctx context.Context, method, path, ctype string, body []byte, limit int64) (reply, error) {
	r := reply{from: method + " " + nc.base + path}
	ctx, cancel := context.WithTimeout(ctx, nc.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, nc.base+path, rd)
	if err != nil {
		return r, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := nc.hc.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.code = resp.StatusCode
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
		r.after = time.Duration(sec) * time.Second
	}
	r.body, err = io.ReadAll(io.LimitReader(resp.Body, limit))
	return r, err
}

// as checks the answer's status is want and, given a non-nil v, decodes
// the JSON body into it; any other status is an error quoting the node.
func (r reply) as(want int, v any) error {
	if r.code != want {
		return fmt.Errorf("node %s: status %d %s", r.from, r.code, bytes.TrimSpace(r.body[:min(len(r.body), maxErrorQuote)]))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(r.body, v)
}

// blob reads a binary answer: the bytes on 200, (nil, nil) on 404 — the
// node does not hold what was asked for — and an error otherwise.
func blob(r reply, err error) ([]byte, error) {
	if err != nil || r.code == http.StatusNotFound {
		return nil, err
	}
	return r.body, r.as(http.StatusOK, nil)
}

// readyz probes the node's readiness endpoint.
func (nc *nodeClient) readyz(ctx context.Context) beatResult {
	var v struct {
		Status  string `json:"status"`
		Queued  int    `json:"queued"`
		Running int    `json:"running"`
	}
	r, err := nc.do(ctx, http.MethodGet, "/readyz", "", nil, maxProbeBody)
	if err == nil {
		if err = json.Unmarshal(r.body, &v); err != nil {
			err = fmt.Errorf("decoding readyz: %w", err)
		}
	}
	switch b := (beatResult{load: v.Queued + v.Running}); {
	case err != nil:
		return beatResult{err: err}
	case r.code == http.StatusOK:
		return b
	case r.code == http.StatusServiceUnavailable && v.Status == "draining":
		b.draining = true
		return b
	case r.code == http.StatusServiceUnavailable && v.Status == "saturated":
		b.saturated = true
		return b
	}
	return beatResult{err: fmt.Errorf("readyz: unexpected status %d %q", r.code, v.Status)}
}

// submit dispatches a job to the node. On 202 it returns the node's view.
// A refusal is reported through code (with any Retry-After hint) and err;
// code 0 with an error is a transport failure.
func (nc *nodeClient) submit(ctx context.Context, sr serve.SolveRequest) (view serve.JobView, code int, after time.Duration, err error) {
	body, err := json.Marshal(sr)
	if err != nil {
		return view, 0, 0, err
	}
	r, err := nc.do(ctx, http.MethodPost, "/v1/solve", "application/json", body, maxJobBody)
	if err != nil {
		return view, 0, 0, err
	}
	return view, r.code, r.after, r.as(http.StatusAccepted, &view)
}

// view fetches a job's status.
func (nc *nodeClient) view(ctx context.Context, id string) (v serve.JobView, err error) {
	r, err := nc.do(ctx, http.MethodGet, "/v1/jobs/"+id, "", nil, maxJobBody)
	if err == nil {
		err = r.as(http.StatusOK, &v)
	}
	return v, err
}

// cancel requests cooperative cancellation of a job (best effort).
func (nc *nodeClient) cancel(ctx context.Context, id string) error {
	_, err := nc.do(ctx, http.MethodDelete, "/v1/jobs/"+id, "", nil, maxJobBody)
	return err
}

// artifactHas reports whether the node's artifact store holds hash.
func (nc *nodeClient) artifactHas(ctx context.Context, hash string) (bool, error) {
	r, err := nc.do(ctx, http.MethodHead, "/v1/artifacts/"+hash, "", nil, 0)
	if err != nil || r.code == http.StatusNotFound {
		return false, err
	}
	return true, r.as(http.StatusOK, nil)
}

// artifactGet fetches an artifact's bytes. A (nil, nil) return means the
// node does not hold it.
func (nc *nodeClient) artifactGet(ctx context.Context, hash string) ([]byte, error) {
	return blob(nc.do(ctx, http.MethodGet, "/v1/artifacts/"+hash, "", nil, maxArtifactBody))
}

// artifactPut uploads bytes to the node's store, returning the hash the
// node computed (the caller verifies it matches the expected one).
func (nc *nodeClient) artifactPut(ctx context.Context, data []byte) (string, error) {
	var v struct {
		Hash string `json:"hash"`
	}
	r, err := nc.do(ctx, http.MethodPut, "/v1/artifacts", "application/octet-stream", data, maxProbeBody)
	if err == nil {
		err = r.as(http.StatusCreated, &v)
	}
	return v.Hash, err
}

// checkpoint pulls the job's latest periodic checkpoint. A (nil, nil)
// return means the node has no checkpoint yet.
func (nc *nodeClient) checkpoint(ctx context.Context, id string) ([]byte, error) {
	return blob(nc.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/checkpoint", "", nil, maxJobBody))
}
