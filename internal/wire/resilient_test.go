package wire

import (
	"errors"
	"testing"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/resilience"
	"mtcache/internal/types"
)

func quickPolicy() resilience.Policy {
	p := resilience.DefaultPolicy()
	p.MaxAttempts = 4
	p.BaseDelay = 2 * time.Millisecond
	p.MaxDelay = 20 * time.Millisecond
	p.RequestTimeout = time.Second
	return p
}

// TestResilientSurvivesConnectionLoss kills the client's connection between
// requests; the next query must transparently re-dial and succeed.
func TestResilientSurvivesConnectionLoss(t *testing.T) {
	_, srv := newWiredBackend(t)
	reg := metrics.NewRegistry()
	// One pooled connection, so the next Get after the sever must re-dial
	// that very slot (with more slots, round-robin may pick a fresh one and
	// the re-dial of the broken slot happens a few requests later).
	policy := quickPolicy()
	policy.PoolSize = 1
	rc, err := DialResilient(srv.Addr(), policy, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, err := rc.Query("SELECT COUNT(*) FROM part", nil); err != nil {
		t.Fatal(err)
	}
	// Sever every pooled connection behind the wrapper's back.
	var severed []*Client
	for _, s := range rc.pool.slots {
		s.mu.Lock()
		if s.c != nil {
			severed = append(severed, s.c)
			s.c.conn.Close()
		}
		s.mu.Unlock()
	}
	if len(severed) == 0 {
		t.Fatal("no pooled connection to sever")
	}
	// Wait for the reader goroutines to observe the break, so the next Get
	// deterministically re-dials instead of racing the severed connection.
	for _, c := range severed {
		deadline := time.Now().Add(2 * time.Second)
		for !c.Broken() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	rs, err := rc.Query("SELECT name FROM part WHERE id = @id", exec.Params{"id": types.NewInt(7)})
	if err != nil {
		t.Fatalf("query after connection loss: %v", err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "part7" {
		t.Fatalf("wrong rows: %v", rs.Rows)
	}
	// The pool re-dials the broken slot lazily: recovery costs a reconnect
	// (counted) but no failed attempt, so no retry is required.
	if reg.Counter("wire.reconnects").Value() == 0 {
		t.Error("recovery should have counted a reconnect")
	}
}

// TestResilientQueryFailsFastWhenDown points the client at a dead address:
// the dial must fail with ErrBackendDown after bounded attempts, not hang.
func TestResilientQueryFailsFastWhenDown(t *testing.T) {
	// Grab a port and close it so nothing listens there.
	_, srv := newWiredBackend(t)
	addr := srv.Addr()
	srv.Close()

	start := time.Now()
	_, err := DialResilient(addr, quickPolicy(), metrics.NewRegistry())
	if err == nil {
		t.Fatal("dial to dead address should fail")
	}
	if !errors.Is(err, resilience.ErrBackendDown) && !errors.Is(err, resilience.ErrTimeout) {
		t.Fatalf("want typed transport error, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("dial took %v; should fail fast", elapsed)
	}
}

// blackHoleClient dials srv through a proxy that then drops every chunk: a
// request dies in flight after a connection existed, which is exactly the
// ambiguous case.
func blackHoleClient(t *testing.T, srv *Server) (*ResilientClient, *metrics.Registry) {
	t.Helper()
	proxy, err := NewFaultProxy("127.0.0.1:0", srv.Addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	reg := metrics.NewRegistry()
	rc, err := DialResilient(proxy.Addr(), quickPolicy(), reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	proxy.SetFaults(FaultConfig{DropRate: 1.0})
	return rc, reg
}

// TestResilientExecDoesNotRetryPostConnect: a transport failure after a text
// that may write may have reached the backend must NOT be retried — the write
// could otherwise run twice. Whatever the first keyword behind the comments
// (DML or an EXEC, which may write as far as the client knows), the error is
// terminal but still degradation-eligible.
func TestResilientExecDoesNotRetryPostConnect(t *testing.T) {
	_, srv := newWiredBackend(t)
	for _, text := range []string{
		"UPDATE part SET qty = 1 WHERE id = 1",
		"INSERT INTO part (id, name, type, qty) VALUES (2001, 'p2001', 'Bolt', 1)",
		"EXEC p @a = @a",
		"/* c */ UPDATE part SET qty = 1 WHERE id = 1",
	} {
		rc, reg := blackHoleClient(t, srv)
		_, err := rc.Query(text, exec.Params{"a": types.NewInt(1)})
		if err == nil {
			t.Fatalf("%s: succeeded through a black-hole link", text)
		}
		if resilience.Retryable(err) {
			t.Errorf("%s: post-connect failure must be terminal: %v", text, err)
		}
		if !resilience.Degradable(err) {
			t.Errorf("%s: terminal transport failure should still be degradation-eligible: %v", text, err)
		}
		if got := reg.Counter("wire.retries").Value(); got != 0 {
			t.Errorf("%s: must not retry post-connect failures; retries=%d", text, got)
		}
	}
}

// TestResilientQueryRetriesPostConnect is the read-only counterpart: the same
// black-hole failure on a SELECT, in any case and behind a comment, is
// retried until the policy is exhausted.
func TestResilientQueryRetriesPostConnect(t *testing.T) {
	_, srv := newWiredBackend(t)
	for _, text := range []string{
		"SELECT COUNT(*) FROM part",
		"select count(*) from part",
		"-- c\nSELECT COUNT(*) FROM part",
	} {
		rc, reg := blackHoleClient(t, srv)
		_, err := rc.Query(text, nil)
		if err == nil {
			t.Fatalf("%q: succeeded through a black-hole link", text)
		}
		if got, want := reg.Counter("wire.retries").Value(), int64(quickPolicy().MaxAttempts-1); got != want {
			t.Errorf("%q should retry to exhaustion: retries=%d want %d", text, got, want)
		}
		if reg.Counter("wire.backend_down").Value() != 1 {
			t.Errorf("%q: exhaustion should count wire.backend_down", text)
		}
	}
}

// TestForwardedWriteRunsOnceWhenEveryAttemptLandsLate: a cache whose backend
// link delays every chunk past the request timeout, so each attempt reaches
// the backend after its caller gave up. Whatever the cache forwards that may
// write, an uncopied procedure's EXEC as much as a client's INSERT, commits on
// the backend exactly once. The test waits until every attempt the client
// sent has landed (one per retry, plus the first), then counts the commits.
func TestForwardedWriteRunsOnceWhenEveryAttemptLandsLate(t *testing.T) {
	b, srv := newWiredBackend(t)
	if _, err := b.Exec("CREATE PROCEDURE bump @id INT AS UPDATE part SET qty = qty + 1 WHERE id = @id", nil); err != nil {
		t.Fatal(err)
	}
	proxy, err := NewFaultProxy("127.0.0.1:0", srv.Addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	reg := metrics.NewRegistry()
	policy := quickPolicy()
	policy.RequestTimeout = 50 * time.Millisecond
	rc, err := DialResilient(proxy.Addr(), policy, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	cache, err := NewRemoteCache("late", rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	proxy.SetFaults(FaultConfig{Delay: 5 * policy.RequestTimeout})

	commits := func() int64 { return int64(b.DB.Store().WAL().End()) }
	for _, text := range []string{
		"EXEC bump 1",
		"INSERT INTO part (id, name, type, qty) VALUES (5001, 'late', 'Tire', 1)",
	} {
		before, retried := commits(), reg.Counter("wire.retries").Value()
		if _, err := cache.DB.Exec(text, nil); err == nil {
			t.Fatalf("%s: answered through a link slower than the request timeout", text)
		}
		sent := reg.Counter("wire.retries").Value() - retried + 1
		for deadline := time.Now().Add(10 * time.Second); commits()-before < sent; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d of %d attempts committed within 10s", text, commits()-before, sent)
			}
		}
		if n := commits() - before; n != 1 {
			t.Errorf("%s: %d backend commits, want 1", text, n)
		}
	}
}

// TestResilientServerErrorsNotRetried: an application-level error (bad SQL)
// is the backend's answer, not a transport failure — no retry, no re-dial.
func TestResilientServerErrorsNotRetried(t *testing.T) {
	_, srv := newWiredBackend(t)
	reg := metrics.NewRegistry()
	rc, err := DialResilient(srv.Addr(), quickPolicy(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	_, err = rc.Query("SELECT nope FROM missing", nil)
	if err == nil {
		t.Fatal("bad SQL should error")
	}
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want *ServerError, got %T: %v", err, err)
	}
	if resilience.Retryable(err) || resilience.Degradable(err) {
		t.Fatal("server errors must be neither retryable nor degradable")
	}
	if reg.Counter("wire.retries").Value() != 0 {
		t.Error("server error must not trigger retries")
	}
	// The connection survives and serves the next request.
	if _, err := rc.Query("SELECT COUNT(*) FROM part", nil); err != nil {
		t.Fatalf("connection should survive a server error: %v", err)
	}
	if reg.Counter("wire.reconnects").Value() != 0 {
		t.Error("server error must not trigger a re-dial")
	}
}

// TestResilientClosedClientRefuses: after Close, requests fail terminally
// instead of re-dialing forever.
func TestResilientClosedClientRefuses(t *testing.T) {
	_, srv := newWiredBackend(t)
	rc, err := DialResilient(srv.Addr(), quickPolicy(), metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	_, err = rc.Query("SELECT 1", nil)
	if err == nil {
		t.Fatal("closed client should refuse requests")
	}
	if resilience.Retryable(err) {
		t.Fatal("closed-client error must be terminal")
	}
}
