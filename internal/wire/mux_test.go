package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
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
	req := &request{}
	return req, decodeRequest(payload, req, interner{})
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

// echo answers req with one row holding its SQL text, so a caller can tell
// whose answer it got.
func echo(req *request) *response {
	return &response{ID: req.ID, Kind: req.Kind, Rows: []types.Row{{types.NewString(req.SQL)}}}
}

// answer is the SQL text an echo answer names, or a description of a result
// that is not one.
func answer(rs *exec.ResultSet) string {
	if len(rs.Rows) != 1 || len(rs.Rows[0]) != 1 {
		return fmt.Sprintf("no request (%d rows)", len(rs.Rows))
	}
	return rs.Rows[0][0].Str()
}

// listenFake accepts connections on a fresh port and hands each, prefaces
// exchanged, to serve in order; the i-th accepted connection gets serve[i].
func listenFake(t *testing.T, serve ...func(conn net.Conn, fake *fakeServer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for _, fn := range serve {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fake, err := newFakeServer(conn)
			if err != nil {
				conn.Close()
				return
			}
			fn(conn, fake)
		}
	}()
	return ln.Addr().String()
}

// TestLateResponseNeverReachesALaterCall: a response that lands around or
// after its request's timeout is dropped with that request's call slot, and
// the next round trip on the same Client — on a pooled slot — gets its own
// answer. Each SLOW request is answered between ¾ and 1¼ of the client's
// timeout, so its response, its timer and the FAST request sent right after
// it race; every FAST request is answered at once.
func TestLateResponseNeverReachesALaterCall(t *testing.T) {
	const timeout = 40 * time.Millisecond
	addr := listenFake(t, func(conn net.Conn, fake *fakeServer) {
		defer conn.Close()
		var (
			wmu     sync.Mutex
			answers sync.WaitGroup
		)
		defer answers.Wait()
		for i := 0; ; i++ {
			req, err := fake.readRequest()
			if err != nil {
				return
			}
			var delay time.Duration
			if strings.HasPrefix(req.SQL, "SLOW") {
				delay = timeout*3/4 + time.Duration(i/2%5)*timeout/8
			}
			answers.Add(1)
			go func() {
				defer answers.Done()
				time.Sleep(delay)
				wmu.Lock()
				defer wmu.Unlock()
				fake.writeResponse(echo(req)) //nolint:errcheck — the client may be gone
			}()
		}
	})
	c, err := Dial(addr, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// query fails the test on another request's answer, on any error but a
	// timeout, and on a timeout reported before the timeout elapsed — what a
	// stale tick left in a reused slot's timer would produce.
	query := func(q string) (timedOut bool) {
		start := time.Now()
		rs, err := c.Query(q, nil)
		switch {
		case errors.Is(err, resilience.ErrTimeout):
			if waited := time.Since(start); waited < timeout {
				t.Fatalf("%s timed out after %v, before its %v timeout", q, waited, timeout)
			}
			return true
		case err != nil:
			t.Fatalf("%s: %v", q, err)
		case answer(rs) != q:
			t.Fatalf("%s received the answer to %s", q, answer(rs))
		}
		return false
	}
	slowTimeouts := 0
	for i := 0; i < 25; i++ {
		if query(fmt.Sprintf("SLOW %d", i)) {
			slowTimeouts++
		}
		query(fmt.Sprintf("FAST %d", i))
	}
	if slowTimeouts == 0 {
		t.Error("no SLOW request timed out: nothing raced a later call")
	}
}

// TestLateResponseNeverWritesALaterResult: a routed Result lends the storage
// it owns to each round trip that answers into it, and a round trip that
// times out forfeits it, for its response may still be decoded into it: the
// reader may have taken the round trip's slot just before the
// timer fired. So a response that lands after its round trip timed out never
// writes into the rows of a later answer — one the same Result takes from
// another server, as the router fails a read over, or one a Result from the
// pool takes. Each SLOW request on one connection is answered around the
// client's timeout with rows that fit the Result's storage, behind a column
// header too long for the connection's header table, which takes the reader
// longer to decode than the steps between the answers' arrival times, so the
// timer often fires while the reader decodes into the slot. After each timeout the Result answers a FAST request on a second
// connection at once. Every answer is checked value by value, and under
// -race a late write into a later answer's storage is reported whenever it
// happens.
func TestLateResponseNeverWritesALaterResult(t *testing.T) {
	const (
		timeout = 40 * time.Millisecond
		width   = 8
		rows    = 100 // 800 values: what a released Result keeps
	)
	answer := func(req *request, slow bool) *response {
		resp := &response{ID: req.ID, Kind: req.Kind}
		if slow {
			resp.Cols = make([]exec.ColInfo, 20000)
		}
		for i := 0; i < rows; i++ {
			row := make(types.Row, width)
			for j := range row {
				row[j] = types.NewString(req.SQL)
			}
			resp.Rows = append(resp.Rows, row)
		}
		return resp
	}
	serve := func(slow bool) func(conn net.Conn, fake *fakeServer) {
		return func(conn net.Conn, fake *fakeServer) {
			defer conn.Close()
			var (
				wmu     sync.Mutex
				answers sync.WaitGroup
			)
			defer answers.Wait()
			for i := 0; ; i++ {
				req, err := fake.readRequest()
				if err != nil {
					return
				}
				var delay time.Duration
				if slow {
					delay = timeout - 5*time.Millisecond + time.Duration(i%12)*500*time.Microsecond
				}
				answers.Add(1)
				go func() {
					defer answers.Done()
					time.Sleep(delay)
					wmu.Lock()
					defer wmu.Unlock()
					fake.writeResponse(answer(req, slow)) //nolint:errcheck — the client may be gone
				}()
			}
		}
	}
	// The SLOW client times out around its answers; the FAST one has a
	// deadline no scheduling stall of the host reaches, so only SLOW calls
	// time out.
	dialFake := func(slow bool, timeout time.Duration) *Client {
		c, err := Dial(listenFake(t, serve(slow)), timeout)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	slowC, fastC := dialFake(true, timeout), dialFake(false, 10*time.Second)

	// check fails the test unless every value of res is q.
	check := func(res *engine.Result, q string) {
		if len(res.Rows) != rows {
			t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), rows)
		}
		for _, row := range res.Rows {
			for _, v := range row {
				if v.Str() != q {
					t.Fatalf("%s: a value of its answer reads %q", q, v.Str())
				}
			}
		}
	}
	res := engine.NewResult()
	fast := func(q string) {
		if _, err := fastC.QueryInto(q, nil, 0, 0, res); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		check(res, q)
	}
	fast("FAST warm") // the Result's storage now holds a whole answer
	slowTimeouts := 0
	for i := 0; i < 60; i++ {
		q := fmt.Sprintf("SLOW %d", i)
		_, err := slowC.QueryInto(q, nil, 0, 0, res)
		switch {
		case errors.Is(err, resilience.ErrTimeout):
			slowTimeouts++
			fast(fmt.Sprintf("FAST %d", i)) // the router's failover
		case err != nil:
			t.Fatalf("%s: %v", q, err)
		default:
			check(res, q)
		}
		res.Release()
		res = engine.NewResult()
		fast(fmt.Sprintf("FAST %d after", i))
	}
	res.Release()
	if slowTimeouts == 0 {
		t.Error("no SLOW request timed out: nothing raced a later answer")
	}
}

// TestSeveredConnectionFailsEveryCallInFlight: a connection cut with n round
// trips in flight fails all n, each with a transport error and none by
// timing out; on a re-dialled client n concurrent round trips, each with its
// own SQL and answered in reverse order, each get their own row — on the call
// slots the failed round trips gave back.
func TestSeveredConnectionFailsEveryCallInFlight(t *testing.T) {
	const n = 8
	addr := listenFake(t,
		func(conn net.Conn, fake *fakeServer) {
			for i := 0; i < n; i++ {
				if _, err := fake.readRequest(); err != nil {
					break
				}
			}
			conn.Close()
		},
		func(conn net.Conn, fake *fakeServer) {
			defer conn.Close()
			var reqs []*request
			for i := 0; i < n; i++ {
				req, err := fake.readRequest()
				if err != nil {
					return
				}
				reqs = append(reqs, req)
			}
			for i := n - 1; i >= 0; i-- {
				if fake.writeResponse(echo(reqs[i])) != nil {
					return
				}
			}
			io.Copy(io.Discard, conn) //nolint:errcheck — hold the connection open
		})

	queryAll := func(c *Client) []error {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				q := fmt.Sprintf("SELECT %d", i)
				rs, err := c.Query(q, nil)
				if err == nil && answer(rs) != q {
					err = fmt.Errorf("%s received the answer to %s", q, answer(rs))
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		return errs
	}

	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range queryAll(c) {
		if !errors.Is(err, resilience.ErrBackendDown) {
			t.Errorf("round trip %d on the severed connection: %v, want ErrBackendDown", i, err)
		}
	}
	c.Close()

	if c, err = Dial(addr, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, err := range queryAll(c) {
		if err != nil {
			t.Errorf("round trip %d on the re-dialled client: %v", i, err)
		}
	}
}

// TestUndecodableFrameFailsEveryWaiter: a response frame that does not decode
// fails its own waiter and every other one on the connection at once — none
// is left to its timeout — and the client is then broken.
func TestUndecodableFrameFailsEveryWaiter(t *testing.T) {
	const n = 4
	addr := listenFake(t, func(conn net.Conn, fake *fakeServer) {
		defer conn.Close()
		var first *request
		for i := 0; i < n; i++ {
			req, err := fake.readRequest()
			if err != nil {
				return
			}
			if first == nil {
				first = req
			}
		}
		// The first request's answer with a trailing byte: its ID matches,
		// its payload does not decode.
		if fake.fw.send(append(appendResponse(fake.fw.begin(), echo(first)), 0)) != nil {
			return
		}
		io.Copy(io.Discard, conn) //nolint:errcheck — hold the connection open
	})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := c.Query(fmt.Sprintf("SELECT %d", i), nil)
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, resilience.ErrBackendDown) {
			t.Errorf("waiter on a connection that received a bad frame: %v, want ErrBackendDown", err)
		}
	}
	if !c.Broken() {
		t.Error("client still live after a frame that does not decode")
	}
}
