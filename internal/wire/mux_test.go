package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/resilience"
	"mtcache/internal/types"
)

// newBackendForOpts builds a small part-table backend without starting a
// server, for tests that need ServeOpts with explicit options.
func newBackendForOpts() (*core.BackendServer, error) {
	b := core.NewBackend("backend")
	err := b.ExecScript(`CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, qty INT);`)
	if err != nil {
		return nil, err
	}
	for i := 1; i <= 100; i++ {
		stmt := fmt.Sprintf("INSERT INTO part (id, name, qty) VALUES (%d, 'part%d', %d)", i, i, i)
		if _, err := b.Exec(stmt, nil); err != nil {
			return nil, err
		}
	}
	b.DB.Analyze()
	return b, nil
}

// fakeServer is the server end of one v3 connection for tests that script
// the responses by hand. It speaks through the codec's own functions.
type fakeServer struct {
	fr *frameReader
	fw frameWriter
}

// newFakeServer exchanges prefaces on an accepted connection.
func newFakeServer(conn net.Conn) (*fakeServer, error) {
	if _, err := conn.Write(preface[:]); err != nil {
		return nil, err
	}
	f := &fakeServer{fr: newFrameReader(conn), fw: frameWriter{w: conn}}
	return f, f.fr.readPreface()
}

func (f *fakeServer) readRequest() (*request, error) {
	payload, err := f.fr.next()
	if err != nil {
		return nil, err
	}
	return decodeRequest(payload)
}

func (f *fakeServer) writeResponse(resp *response) error {
	return f.fw.send(appendResponse(f.fw.begin(), resp))
}

// TestMuxCorrelation floods one connection with concurrent parameterized
// queries and checks every caller gets its own answer back — the demux must
// never cross-deliver responses, no matter how requests interleave.
func TestMuxCorrelation(t *testing.T) {
	_, srv := newWiredBackend(t)
	c := dial(t, srv)

	const workers = 32
	const perWorker = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < perWorker; q++ {
				id := int64(1 + (w*perWorker+q)%1000)
				rs, err := c.Query("SELECT id, name FROM part WHERE id = @id",
					exec.Params{"id": types.NewInt(id)})
				if err != nil {
					errs <- err
					return
				}
				if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != id {
					errs <- errors.New("response delivered to the wrong request")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMuxOutOfOrderDelivery drives the client against a hand-rolled
// server that deliberately answers the second request before the first:
// correlation IDs must route each response to its own caller even when the
// wire order inverts the send order.
func TestMuxOutOfOrderDelivery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fake, err := newFakeServer(conn)
		if err != nil {
			return
		}
		var reqs []*request
		for i := 0; i < 2; i++ {
			req, err := fake.readRequest()
			if err != nil {
				return
			}
			reqs = append(reqs, req)
		}
		// Answer in reverse arrival order; each response names its request's
		// SQL so the client side can tell who got what.
		for i := len(reqs) - 1; i >= 0; i-- {
			resp := response{
				ID:   reqs[i].ID,
				Rows: []types.Row{{types.NewString(reqs[i].SQL)}},
			}
			if err := fake.writeResponse(&resp); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		sql string
		rs  *exec.ResultSet
		err error
	}
	results := make(chan result, 2)
	var wg sync.WaitGroup
	var sendMu sync.Mutex // stagger sends so arrival order is deterministic
	sendMu.Lock()
	for _, q := range []string{"FIRST", "SECOND"} {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			if q == "SECOND" {
				sendMu.Lock() // released once FIRST is on the wire
				sendMu.Unlock()
			}
			rs, err := c.Query(q, nil)
			results <- result{sql: q, rs: rs, err: err}
		}(q)
		if q == "FIRST" {
			time.Sleep(50 * time.Millisecond) // let FIRST's frame go out
			sendMu.Unlock()
		}
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			t.Fatalf("%s: %v", r.sql, r.err)
		}
		if got := r.rs.Rows[0][0].Str(); got != r.sql {
			t.Fatalf("request %s received response for %s", r.sql, got)
		}
	}
}

// TestMuxServerBackpressure runs far more concurrent requests than the
// server's MaxInFlight allows: the semaphore must throttle, not deadlock,
// and every request must still complete correctly.
func TestMuxServerBackpressure(t *testing.T) {
	b, err := newBackendForOpts()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeOpts(b, "127.0.0.1:0", ServerOptions{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := int64(w + 1)
			rs, err := c.Query("SELECT name FROM part WHERE id = @id",
				exec.Params{"id": types.NewInt(id)})
			if err != nil {
				errs <- err
				return
			}
			if len(rs.Rows) != 1 {
				errs <- errors.New("wrong row count under backpressure")
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMuxTimeoutSparesConnection: a timed-out request — even the first on
// its connection — is abandoned alone: the connection survives, the late
// response is dropped by ID on arrival, and the very same client keeps
// serving.
func TestMuxTimeoutSparesConnection(t *testing.T) {
	_, srv := newWiredBackend(t)
	proxy, err := NewFaultProxy("127.0.0.1:0", srv.Addr(), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := Dial(proxy.Addr(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	proxy.SetFaults(FaultConfig{Delay: 400 * time.Millisecond})
	_, err = c.Query("SELECT COUNT(*) FROM part", nil)
	if !errors.Is(err, resilience.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if c.Broken() {
		t.Fatal("a timeout must not kill the connection")
	}

	proxy.SetFaults(FaultConfig{})
	// Give the abandoned response time to straggle in and be dropped by ID.
	time.Sleep(450 * time.Millisecond)
	rs, err := c.Query("SELECT name FROM part WHERE id = @id", exec.Params{"id": types.NewInt(3)})
	if err != nil {
		t.Fatalf("same client after a timed-out request: %v", err)
	}
	if rs.Rows[0][0].Str() != "part3" {
		t.Fatalf("late response mis-paired: %v", rs.Rows)
	}
}

// TestMuxDropsIDLessResponse: responses are matched by correlation ID only.
// A frame without one (what a pre-multiplexing server would send) is dropped
// like any unmatched response, never handed to the oldest waiter.
func TestMuxDropsIDLessResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fake, err := newFakeServer(conn)
		if err != nil {
			return
		}
		req, err := fake.readRequest()
		if err != nil {
			return
		}
		_ = fake.writeResponse(&response{Kind: reqQuery, N: 99})            // no ID: must be ignored
		_ = fake.writeResponse(&response{Kind: reqQuery, ID: req.ID, N: 1}) // the real answer
	}()

	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Query("UPDATE part SET qty = 0 WHERE id = 1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.RowsAffected != 1 {
		t.Fatalf("got N=%d: the ID-less frame was delivered to the waiter", rs.RowsAffected)
	}
}

// TestPoolRecyclesBrokenSlot: a pool re-dials exactly the slot whose
// connection broke, counts the reconnect, and reports open connections
// accurately throughout.
func TestPoolRecyclesBrokenSlot(t *testing.T) {
	_, srv := newWiredBackend(t)
	reg := metrics.NewRegistry()
	p := NewPool(srv.Addr(), 2, time.Second, reg)
	defer p.Close()

	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("round-robin should hand out distinct slots")
	}
	if p.Open() != 2 {
		t.Fatalf("open = %d, want 2", p.Open())
	}

	c1.conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for !c1.Broken() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Open() != 1 {
		t.Fatalf("open after sever = %d, want 1", p.Open())
	}

	// Two more Gets visit both slots; the broken one must be re-dialed.
	for i := 0; i < 2; i++ {
		c, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		if c.Broken() {
			t.Fatal("Get returned a broken connection")
		}
	}
	if p.Open() != 2 {
		t.Fatalf("open after recycle = %d, want 2", p.Open())
	}
	if reg.Counter("wire.reconnects").Value() != 1 {
		t.Fatalf("reconnects = %d, want 1", reg.Counter("wire.reconnects").Value())
	}
}

// TestPoolClosedRefuses: Get on a closed pool fails terminally.
func TestPoolClosedRefuses(t *testing.T) {
	_, srv := newWiredBackend(t)
	p := NewPool(srv.Addr(), 1, time.Second, metrics.NewRegistry())
	if _, err := p.Get(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	_, err := p.Get()
	if err == nil {
		t.Fatal("closed pool must refuse Get")
	}
	if resilience.Retryable(err) {
		t.Fatal("closed-pool error must be terminal")
	}
}
