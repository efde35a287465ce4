package wire

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/repl"
	"mtcache/internal/resilience"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
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
// Retry rules follow idempotency. Every request retries while no connection
// could be produced (connect phase). After that, Snapshot, Provision, Pull
// and a read-only Query (sql.ReadOnly) retry on any transport failure:
// Provision attaches by name, so a retry finds the feed its original
// attached, and Pull re-delivers until acked. Any other
// Query (DML, an EXEC, DDL) may have executed on the backend even though the
// response was lost, so it turns terminal the moment it may have reached the
// backend.
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
			r.reg.Event("wire.retries", "addr", r.addr, "attempt", strconv.Itoa(attempt))
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
	r.reg.Event("wire.backend_down", "addr", r.addr,
		"attempts", strconv.Itoa(r.policy.MaxAttempts), "error", last.Error())
	return fmt.Errorf("wire: %s failed after %d attempts: %w", r.addr, r.policy.MaxAttempts, last)
}

// Query implements exec.RemoteClient: a read-only text is retried, any other
// is delivered at most once.
func (r *ResilientClient) Query(sqlText string, params exec.Params) (*exec.ResultSet, error) {
	rs, _, err := r.QueryTraced(sqlText, params, "")
	return rs, err
}

// QueryTraced is Query under the caller's trace ID. The span is always nil
// (see exec.RemoteClient).
func (r *ResilientClient) QueryTraced(sqlText string, params exec.Params, traceID string) (*exec.ResultSet, *trace.WireSpan, error) {
	var rs *exec.ResultSet
	err := r.do(sql.ReadOnly(sqlText), func(c *Client) error {
		var e error
		rs, _, e = c.QueryTraced(sqlText, params, traceID)
		return e
	})
	if err != nil {
		return nil, nil, err
	}
	return rs, nil, nil
}

// ExecLSN is Query's row count and commit LSN. It stays only for the fleet
// benchmark's counting link; the benchmark change that counts backend
// requests where they arrive (ROADMAP direction 2) deletes it.
func (r *ResilientClient) ExecLSN(sqlText string, params exec.Params) (int64, storage.LSN, error) {
	rs, err := r.Query(sqlText, params)
	if err != nil {
		return 0, 0, err
	}
	return rs.RowsAffected, rs.CommitLSN, nil
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

// Provision attaches a cached view's article to the cache's pull
// subscription, resumed at (id, from) or seeded (idempotent by
// subscription and view name: retried).
func (r *ResilientClient) Provision(table string, columns []string, filter, subName, target string, id uint64, from storage.LSN) (repl.Attachment, error) {
	var a repl.Attachment
	err := r.do(true, func(c *Client) (err error) {
		a, err = c.Provision(table, columns, filter, subName, target, id, from)
		return err
	})
	return a, err
}

// Pull fetches pending transactions (idempotent: unacknowledged batches are
// re-delivered, so a retried pull never loses data). repl.ErrNoSubscription
// is terminal: the backend answered, and the subscriber attaches again.
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
