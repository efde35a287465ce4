package wire

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/querystore"
	"mtcache/internal/repl"
	"mtcache/internal/resilience"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

var (
	_ BackendClient = (*Client)(nil)
	_ BackendClient = (*ResilientClient)(nil)
)

// ResilientClient wraps the wire protocol with per-request deadlines,
// bounded exponential backoff with jitter, a sized connection pool, and
// automatic re-dial of broken pooled connections. It is the cache's
// production backend link: a dropped TCP frame costs a retry, not a query.
//
// Pooling composes with multiplexing: each pooled connection carries any
// number of concurrent requests, requests spread round-robin over the pool,
// and a connection dying mid-flight fails only the requests on it — the
// idempotent ones retry on the next pooled connection (re-dialed lazily)
// under the same policy as before.
//
// Retry rules follow idempotency: Query, Snapshot, Provision and Pull are
// idempotent (Provision attaches by name; Pull re-delivers until acked) and
// retry on any transport failure. Exec forwards DML, which may have executed
// on the backend even though the response was lost — it retries only while
// no connection could be produced (connect phase) and turns terminal the
// moment a request may have reached the backend.
type ResilientClient struct {
	addr   string
	policy resilience.Policy
	reg    *metrics.Registry
	pool   *Pool

	mu     sync.Mutex
	closed bool
}

// DialResilient connects to a wire server with the given retry policy. The
// first pooled connection is dialed eagerly (retried under the policy) so a
// dead address fails fast; the rest of the pool fills lazily under load.
// reg may be nil to use metrics.Default.
func DialResilient(addr string, policy resilience.Policy, reg *metrics.Registry) (*ResilientClient, error) {
	if reg == nil {
		reg = metrics.Default
	}
	if policy.MaxAttempts < 1 {
		policy.MaxAttempts = 1
	}
	size := policy.PoolSize
	if size < 1 {
		size = 1
	}
	r := &ResilientClient{
		addr:   addr,
		policy: policy,
		reg:    reg,
		pool:   NewPool(addr, size, policy.RequestTimeout, reg),
	}
	err := resilience.Do(policy, func(int) error {
		_, err := r.conn()
		return err
	})
	if err != nil {
		r.pool.Close()
		return nil, err
	}
	return r, nil
}

// Addr returns the backend address the client (re-)dials.
func (r *ResilientClient) Addr() string { return r.addr }

// Pool exposes the connection pool (observability and tests).
func (r *ResilientClient) Pool() *Pool { return r.pool }

// Close closes every pooled connection and stops further re-dials.
func (r *ResilientClient) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.pool.Close()
}

// conn produces a live connection from the pool, which dials lazily.
func (r *ResilientClient) conn() (*Client, error) {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return nil, resilience.Terminal(fmt.Errorf("wire: client closed: %w", resilience.ErrBackendDown))
	}
	return r.pool.Get()
}

// do runs one request under the retry policy. Connect-phase failures retry
// for every request kind; post-connect transport failures retry only for
// idempotent requests. Server-reported errors are terminal. A request
// failure only evicts its connection from the pool when the connection
// itself broke — a timed-out request on a live multiplexed connection
// leaves the other in-flight requests on it undisturbed.
func (r *ResilientClient) do(idempotent bool, fn func(c *Client) error) error {
	var last error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.reg.Counter("wire.retries").Add(1)
			querystore.Emit("wire_retry", "addr", r.addr, "attempt", strconv.Itoa(attempt))
			time.Sleep(r.policy.Delay(attempt, nil))
		}
		c, err := r.conn()
		if err != nil {
			last = err
			if !resilience.Retryable(err) {
				return err
			}
			continue
		}
		err = fn(c)
		if err == nil {
			return nil
		}
		last = err
		if !resilience.Retryable(err) {
			return err
		}
		if errors.Is(err, resilience.ErrTimeout) {
			r.reg.Counter("wire.timeouts").Add(1)
		}
		if c.Broken() {
			r.pool.Invalidate(c)
		}
		if !idempotent {
			// The request may have executed on the backend; retrying could
			// apply it twice. Surface the transport failure as terminal.
			return resilience.Terminal(last)
		}
	}
	r.reg.Counter("wire.backend_down").Add(1)
	querystore.Emit("retry_exhausted", "addr", r.addr,
		"attempts", strconv.Itoa(r.policy.MaxAttempts), "error", last.Error())
	return fmt.Errorf("wire: %s failed after %d attempts: %w", r.addr, r.policy.MaxAttempts, last)
}

// Query implements exec.RemoteClient (idempotent: retried).
func (r *ResilientClient) Query(sqlText string, params exec.Params) (*exec.ResultSet, error) {
	var rs *exec.ResultSet
	err := r.do(true, func(c *Client) error {
		var e error
		rs, e = c.Query(sqlText, params)
		return e
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// QueryTraced implements exec.SpanQuerier (idempotent: retried). The
// backend-side span tree of the successful attempt is returned.
func (r *ResilientClient) QueryTraced(sqlText string, params exec.Params, traceID string) (*exec.ResultSet, *trace.WireSpan, error) {
	var (
		rs   *exec.ResultSet
		span *trace.WireSpan
	)
	err := r.do(true, func(c *Client) error {
		var e error
		rs, span, e = c.QueryTraced(sqlText, params, traceID)
		return e
	})
	if err != nil {
		return nil, nil, err
	}
	return rs, span, nil
}

// Exec implements exec.RemoteClient. Forwarded DML is not idempotent, so it
// retries only on connect-phase failures.
func (r *ResilientClient) Exec(sqlText string, params exec.Params) (int64, error) {
	n, _, err := r.ExecLSN(sqlText, params)
	return n, err
}

// ExecLSN implements exec.LSNExecer under the same retry rules as Exec: the
// forwarded DML's backend commit LSN rides back with the row count.
func (r *ResilientClient) ExecLSN(sqlText string, params exec.Params) (int64, storage.LSN, error) {
	var (
		n   int64
		lsn storage.LSN
	)
	err := r.do(false, func(c *Client) error {
		var e error
		n, lsn, e = c.ExecLSN(sqlText, params)
		return e
	})
	if err != nil {
		return 0, 0, err
	}
	return n, lsn, nil
}

// AppliedLSN probes how far the server's data is applied (idempotent:
// retried).
func (r *ResilientClient) AppliedLSN() (storage.LSN, error) {
	var lsn storage.LSN
	err := r.do(true, func(c *Client) error {
		var e error
		lsn, e = c.AppliedLSN()
		return e
	})
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// Snapshot fetches the backend catalog snapshot (idempotent: retried).
func (r *ResilientClient) Snapshot() ([]byte, error) {
	var data []byte
	err := r.do(true, func(c *Client) error {
		var e error
		data, e = c.Snapshot()
		return e
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Provision attaches a cached view's article to the cache's pull subscription
// (idempotent by subscription and view name: retried).
func (r *ResilientClient) Provision(table string, columns []string, filter, subName, target string) (int, storage.LSN, []types.Row, error) {
	var (
		subID int
		lsn   storage.LSN
		rows  []types.Row
	)
	err := r.do(true, func(c *Client) error {
		var e error
		subID, lsn, rows, e = c.Provision(table, columns, filter, subName, target)
		return e
	})
	if err != nil {
		return 0, 0, nil, err
	}
	return subID, lsn, rows, nil
}

// Resume reattaches a cached view's article at a durable position
// (idempotent: repeating it reattaches to the same feed, so it is retried).
func (r *ResilientClient) Resume(table string, columns []string, filter, subName, target string, fromLSN storage.LSN) (int, bool, error) {
	var (
		subID int
		ok    bool
	)
	err := r.do(true, func(c *Client) error {
		var e error
		subID, ok, e = c.Resume(table, columns, filter, subName, target, fromLSN)
		return e
	})
	if err != nil {
		return 0, false, err
	}
	return subID, ok, nil
}

// Pull fetches pending transactions (idempotent: unacknowledged batches are
// re-delivered, so a retried pull never loses data).
func (r *ResilientClient) Pull(subID, max int, ack storage.LSN) ([]repl.TxnBatch, storage.LSN, error) {
	var (
		batches []repl.TxnBatch
		through storage.LSN
	)
	err := r.do(true, func(c *Client) error {
		var e error
		batches, through, e = c.Pull(subID, max, ack)
		return e
	})
	if err != nil {
		return nil, 0, err
	}
	return batches, through, nil
}
