package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/wire"
)

// RunStream is a worker's answer to an agree-set shard dispatch: the
// DMRUN1 run stream, unconsumed. The caller streams Body to EOF (e.g.
// through extsort.AdoptRun), then reads the end-of-stream attestations
// with TrailerSets and TrailerCouples, then Closes. A stream abandoned mid-body must still
// be Closed.
type RunStream struct {
	// Body is the raw run stream (magic + CRC-framed blocks).
	Body io.ReadCloser
	resp *http.Response
}

// Close releases the underlying connection.
func (rs *RunStream) Close() error { return rs.Body.Close() }

// TrailerSets returns the worker's end-of-stream record count. Valid
// only after Body has been read to EOF; ok is false when the trailer is
// absent (a proxy stripped it) or malformed.
func (rs *RunStream) TrailerSets() (int64, bool) { return rs.trailer(wire.ShardSetsTrailer) }

// TrailerCouples returns the shard's couple count as the worker
// attested it, under the same conditions as TrailerSets.
func (rs *RunStream) TrailerCouples() (int64, bool) { return rs.trailer(wire.ShardCouplesTrailer) }

// trailer parses a non-negative integer trailer.
func (rs *RunStream) trailer(name string) (int64, bool) {
	v := rs.resp.Trailer.Get(name)
	if v == "" {
		return 0, false
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// AgreeShard dispatches one agree-set shard computation to a worker and
// returns its run stream. A shard computation has no side effects, so
// the call retries under the client's policy exactly like Discover; what
// cannot be retried here is a stream that breaks after the 2xx — the
// caller owns that failure (the coordinator's answer is the local
// fallback). A worker that does not know the fingerprint answers 404
// (*APIError matching ErrNotFound): push the dataset with Register and
// dispatch again.
func (c *Client) AgreeShard(ctx context.Context, req wire.ShardRequest) (*RunStream, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	const path = "/v1/shard/agree"
	p := c.retry
	for try := 1; ; try++ {
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		httpReq.Header.Set("Content-Type", "application/json")
		setRequestID(httpReq)
		var (
			status     int
			attemptErr error
			retryAfter time.Duration
		)
		resp, err := c.httpc.Do(httpReq)
		if err != nil {
			attemptErr = err
		} else {
			status = resp.StatusCode
			if status < 400 {
				if ct := resp.Header.Get("Content-Type"); ct != wire.RunContentType {
					resp.Body.Close()
					return nil, fmt.Errorf("depminerd: shard response content-type %q, want %q", ct, wire.RunContentType)
				}
				c.observe(Attempt{Method: http.MethodPost, Path: path, Try: try, Status: status})
				return &RunStream{Body: resp.Body, resp: resp}, nil
			}
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
			apiErr := &APIError{StatusCode: status}
			var eb wire.ErrorResponse
			if json.Unmarshal(raw, &eb) == nil {
				apiErr.Message = eb.Error
			}
			if ra, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
				apiErr.RetryAfter = ra
				retryAfter = ra
			}
			resp.Body.Close()
			attemptErr = apiErr
		}
		canRetry := try < p.MaxAttempts && ctx.Err() == nil
		if canRetry {
			if apiErr, ok := attemptErr.(*APIError); ok {
				canRetry = retryableStatus(apiErr.StatusCode)
			}
		}
		if !canRetry {
			c.observe(Attempt{Method: http.MethodPost, Path: path, Try: try, Status: status, Err: attemptErr})
			return nil, attemptErr
		}
		wait := p.backoff(try, retryAfter)
		c.observe(Attempt{Method: http.MethodPost, Path: path, Try: try, Status: status, Err: attemptErr, Backoff: wait})
		if serr := sleep(ctx, wait); serr != nil {
			return nil, fmt.Errorf("%w (while backing off from: %v)", serr, attemptErr)
		}
	}
}
