package histcheck

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/router"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/tpcw"
	"mtcache/internal/types"
	"mtcache/internal/wire"
)

// scenarioConfig is a TPC-W database small enough to replay a few hundred
// reads at every prefix of the log in well under a second.
var scenarioConfig = tpcw.Config{Items: 60, Customers: 40, OrdersPerCustomer: 0.9, Seed: 46}

// recorder is a fleet — a durable backend, two caches with the paper's cached
// views and procedure copies, and the router, every hop over loopback — with
// no pull agent, and the history of every statement its sessions sent, with
// the backend's log captured as it grows from the end of the setup on. Its
// one fault is a restart of the backend from its directory (restart).
type recorder struct {
	t        *testing.T
	dir      string
	backend  *core.BackendServer
	closers  []func()
	router   *router.Router
	caches   []*wire.RemoteCache
	sessions map[int]*router.Session // by session id, on the current router
	history  []Call
	wal      []storage.CommitRecord
	next     storage.LSN // the first LSN not captured yet

	recoveries []*storage.RecoveryStats // one per restart
}

// openBackend opens the recorder's durable backend on dir. A segment holds
// one flush, so a checkpoint at the log's end, once truncation catches up,
// outlives every segment that held a record.
func openBackend(t *testing.T, dir string) *core.BackendServer {
	t.Helper()
	b, err := core.NewBackendDurable("backend", storage.DurabilityOptions{Dir: dir, Policy: storage.SyncGroup, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newRecorder(t *testing.T) *recorder {
	t.Helper()
	dir := t.TempDir()
	b := openBackend(t, dir)
	if err := tpcw.Load(b, scenarioConfig); err != nil {
		t.Fatal(err)
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	// The load's rows are unlogged; a checkpoint makes them durable.
	if _, err := b.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := &recorder{t: t, dir: dir, backend: b, next: b.DB.Store().WAL().End()}
	r.serve()
	t.Cleanup(func() {
		r.stop()
		r.backend.DB.CloseStore() //nolint:errcheck
	})
	return r
}

// serve puts the fleet in front of the current backend: its wire server, two
// caches provisioned from it and a router over them.
func (r *recorder) serve() {
	t := r.t
	bsrv, err := wire.Serve(r.backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.closers = append(r.closers, bsrv.Close)
	r.caches = nil
	var addrs []string
	for i := 1; i <= 2; i++ {
		client, err := wire.Dial(bsrv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		r.closers = append(r.closers, func() { client.Close() }) //nolint:errcheck
		rc, err := wire.NewRemoteCache(fmt.Sprintf("cache%d", i), client, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tpcw.SetupCache(rc); err != nil {
			t.Fatal(err)
		}
		csrv, err := wire.ServeCache(rc, "127.0.0.1:0", wire.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r.closers = append(r.closers, csrv.Close)
		r.caches = append(r.caches, rc)
		addrs = append(addrs, csrv.Addr())
	}
	r.router, err = router.New(router.Config{
		Backend: bsrv.Addr(), Caches: addrs,
		Timeout: 5 * time.Second, Watermark: 2 * time.Second,
		Reg: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.closers = append(r.closers, r.router.Close)
	r.sessions = map[int]*router.Session{}
}

// stop closes the fleet in front of the backend, the router first.
func (r *recorder) stop() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// restart stops the fleet, closes the backend's log — after a checkpoint and
// a truncation of every record, when outlive is set, so the checkpoint
// outlives them all — and opens the backend again on its directory, with no
// script. Each table of the recovered backend is read before anything else
// commits, and the reads are the restart's calls. Then a new fleet serves
// it, and every session goes on through the new router.
func (r *recorder) restart(outlive bool) {
	t := r.t
	r.stop()
	if outlive {
		ck, err := r.backend.DB.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		wal := r.backend.DB.Store().WAL()
		if wal.Truncate(ck); wal.First() != ck {
			t.Fatalf("the log kept LSN %d behind checkpoint %d", wal.First(), ck)
		}
	}
	if err := r.backend.DB.CloseStore(); err != nil {
		t.Fatal(err)
	}
	r.backend = openBackend(t, r.dir)
	if n := r.backend.DB.Store().WAL().Len(); outlive && n != 0 {
		t.Fatalf("the directory kept %d records behind the checkpoint", n)
	}
	r.recoveries = append(r.recoveries, r.backend.DB.Store().Recovered())
	for _, tbl := range r.backend.DB.Catalog().Tables() {
		if tbl.IsView && !tbl.Materialized {
			continue
		}
		text := "SELECT * FROM " + tbl.Name
		res, err := r.backend.DB.Exec(text, nil)
		if err != nil {
			t.Fatalf("after a restart: %s: %v", text, err)
		}
		c := Call{Session: -1, Text: text, Restart: true, Rows: keep(res.Rows)}
		res.Release()
		r.record(c)
	}
	r.serve()
}

// backendSession is the session that talks to the backend itself, for the
// table the scenario creates at run time, which no cache has.
const backendSession = 8

// conn is session id's application connection: every statement goes through
// the session's router session, or straight to the backend for
// backendSession, and into the history.
func (r *recorder) conn(id int) *core.Conn {
	send := func(text string, params exec.Params, write bool) (*engine.Result, error) {
		var res *engine.Result
		var err error
		if id == backendSession {
			res, err = r.backend.DB.Exec(text, params)
		} else {
			rs := r.sessions[id]
			if rs == nil {
				rs = r.router.Session()
				r.sessions[id] = rs
			}
			res, err = rs.Exec(text, params)
		}
		if err != nil {
			return nil, fmt.Errorf("session %d: %s: %w", id, text, err)
		}
		// The application refills its map for its next call (tpcw.Session),
		// and res goes back to its pool with its rows' values and strings.
		c := Call{Session: id, Text: text, Params: maps.Clone(params), Write: write,
			RowsAffected: res.RowsAffected, CommitLSN: res.CommitLSN}
		if !write {
			c.Rows = keep(res.Rows)
		}
		r.record(c)
		return res, nil
	}
	return core.NewConn(fmt.Sprintf("session-%d", id),
		func(text string, params exec.Params) (*engine.Result, error) {
			return send(text, params, !sql.ReadOnly(text))
		},
		func(proc string, params exec.Params) (*engine.Result, error) {
			return send(sql.CallShape(proc, params), params, r.backend.DB.Catalog().Procedure(proc).Writes())
		})
}

// keep copies rows, the bytes of their strings included, out of the Result
// that holds them, which recycles both once released.
func keep(rows []types.Row) []types.Row {
	var kept []types.Row
	for _, row := range rows {
		row = slices.Clone(row)
		for i, v := range row {
			if v.K == types.KindString {
				row[i] = types.NewString(strings.Clone(v.Str()))
			}
		}
		kept = append(kept, row)
	}
	return kept
}

// record adds c, answered just now, to the history, with the backend log's
// end, and captures the records the log gained since the last call — before
// a pull's acknowledgement lets the backend truncate them. An LSN the log
// skipped is not there to capture; Check reports the hole. A hole before the
// first captured record has no neighbour for Check to see it by, and the
// log skips no LSN before its first restart, so there it is the recorder's
// own failure.
func (r *recorder) record(c Call) {
	wal := r.backend.DB.Store().WAL()
	c.End = wal.End()
	r.history = append(r.history, c)
	recs := wal.ReadFrom(r.next, 0)
	if len(r.wal) == 0 && (wal.First() > r.next || len(recs) > 0 && recs[0].LSN != r.next) {
		r.t.Fatalf("the log was truncated past LSN %d before the recorder captured it", r.next)
	}
	r.wal = append(r.wal, recs...)
	if n := len(r.wal); n > 0 {
		r.next = r.wal[n-1].LSN + 1
	}
}

// digest is the history with its clock taken out: what two runs of one
// seed must agree on.
func (r *recorder) digest() string {
	var b strings.Builder
	for _, c := range r.history {
		params := exec.Params{}
		for name, v := range c.Params {
			if v.K == types.KindTime {
				v = types.Null // the application's clock
			}
			params[name] = v
		}
		fmt.Fprintf(&b, "%d %s %s %v %d %d %d %d\n", c.Session, c.Text, paramKey(params), c.Write, len(c.Rows), c.RowsAffected, c.CommitLSN, c.End)
	}
	return b.String()
}

// runScenario drives eight sessions from one goroutine, in an order drawn
// from seed: they mix TPC-W interactions (the Shopping mix) with repeated ad
// hoc reads and writes of eight items — UPDATEs of four loaded ones, and
// INSERTs and DELETEs of four keys past the load, which the INSERT adds and
// the DELETE takes away again — and the caches pull at points drawn from the
// same seed. So a result-cache entry is admitted, invalidated by a pull and
// read again, the session that wrote it included, reads land on caches at
// every staleness, and every kind of write text is forwarded by a cache. A
// ninth session creates a table on the backend first and then writes and
// reads it there. The backend restarts before each step named in restarts:
// from its log when the value is false, from a checkpoint that outlives
// every record when it is true.
func runScenario(t *testing.T, seed int64, restarts map[int]bool) *recorder {
	r := newRecorder(t)
	rng := rand.New(rand.NewSource(seed))
	type session struct {
		conn *core.Conn
		app  *tpcw.App
		s    *tpcw.Session
	}
	var sessions []session
	for i := 0; i < 8; i++ {
		conn := r.conn(i)
		app := tpcw.NewApp(conn, scenarioConfig)
		if i > 0 {
			app.ShareIDsWith(sessions[0].app)
		}
		sessions = append(sessions, session{conn, app, app.NewSession(seed + int64(i))})
	}
	backend := r.conn(backendSession)
	res, err := backend.Exec("CREATE TABLE note (id INT PRIMARY KEY, v INT)", nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	key := func() int { // one of the loaded items 1–4 or the keys past the load
		id := 1 + rng.Intn(8)
		if id > 4 {
			id += scenarioConfig.Items - 4
		}
		return id
	}
	added := map[int]bool{} // keys past the load an INSERT added
	notes := 0              // rows of the table made at run time
	for step := 0; step < 400; step++ {
		if outlive, ok := restarts[step]; ok {
			r.restart(outlive)
		}
		s := sessions[rng.Intn(len(sessions))]
		conn, text := s.conn, ""
		switch x := rng.Intn(22); {
		case x < 2:
			if _, err := r.caches[rng.Intn(len(r.caches))].Pull(); err != nil {
				t.Fatal(err)
			}
			continue
		case x < 10:
			if _, err := s.app.Run(s.s, tpcw.Pick(tpcw.Shopping, rng)); err != nil {
				t.Fatal(err)
			}
			continue
		case x < 14:
			text = fmt.Sprintf("SELECT i_id, i_cost, i_stock FROM item WHERE i_id = %d", key())
		case x < 18:
			text = fmt.Sprintf("SELECT COUNT(*) FROM item WHERE (i_id <= 4 OR i_id > %d) AND i_cost > %d", scenarioConfig.Items, 20*(1+rng.Intn(4)))
		case x == 20:
			notes++
			conn, text = backend, fmt.Sprintf("INSERT INTO note (id, v) VALUES (%d, %d)", notes, rng.Intn(100))
		case x == 21 && rng.Intn(2) == 0:
			conn, text = backend, fmt.Sprintf("UPDATE note SET v = v + 1 WHERE id = %d", 1+rng.Intn(notes+1))
		case x == 21:
			conn, text = backend, "SELECT id, v FROM note"
		case rng.Intn(2) == 0:
			text = fmt.Sprintf("UPDATE item SET i_cost = %d WHERE i_id = %d", rng.Intn(100), 1+rng.Intn(4))
		default:
			id := scenarioConfig.Items + 1 + rng.Intn(4)
			if added[id] {
				text = fmt.Sprintf("DELETE FROM item WHERE i_id = %d", id)
			} else {
				text = fmt.Sprintf("INSERT INTO item (i_id, i_title, i_cost, i_stock) VALUES (%d, 'added', %d, %d)", id, rng.Intn(100), rng.Intn(10))
			}
			added[id] = !added[id]
		}
		res, err := conn.Exec(text, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	return r
}

// check runs Check on r's history with a fresh oracle at the state the
// capture started from, and fails the test on a violation.
func check(t *testing.T, r *recorder) {
	t.Helper()
	oracle := core.NewBackend("oracle")
	if err := tpcw.Load(oracle, scenarioConfig); err != nil {
		t.Fatal(err)
	}
	if err := oracle.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	v, err := Check(r.history, r.wal, oracle.DB)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatal(v)
	}
}

// TestScenarioKeepsTheContract: the fault-free scenario's history keeps the
// contract, and two runs of its seed send the same statements and get the
// same answers, but for the application's clock. The result cache's
// admissions, hits and invalidations all happen in it, and so do INSERT,
// UPDATE and DELETE texts that write a row.
func TestScenarioKeepsTheContract(t *testing.T) {
	const seed = 46
	counter := func(name string) int64 { return metrics.Default.Counter(name).Value() }
	hits, invalidations := counter("imcache.hits"), counter("imcache.invalidations")
	r := runScenario(t, seed, nil)
	if counter("imcache.hits") == hits || counter("imcache.invalidations") == invalidations {
		t.Fatal("the result cache never served or never invalidated an entry: the scenario lost its point")
	}
	if again := runScenario(t, seed, nil); again.digest() != r.digest() {
		t.Fatal("two runs of one seed sent different statements or got different answers")
	}
	check(t, r)
	// The contract holds, so each RowsAffected is the log's.
	wrote := map[string]int{}
	for _, c := range r.history {
		if c.Write && c.RowsAffected > 0 {
			wrote[strings.Fields(c.Text)[0]]++
		}
	}
	for _, kind := range []string{"INSERT", "UPDATE", "DELETE"} {
		if wrote[kind] == 0 {
			t.Fatalf("no %s text wrote a row (%v): the scenario lost its point", kind, wrote)
		}
	}
	t.Logf("%d calls, %d backend commits: the contract holds", len(r.history), len(r.wal))
}

// TestRestartKeepsTheContract: the scenario with the backend restarted
// twice — once with records past its last checkpoint, which recovery
// replays, and once after a checkpoint that outlives every record — keeps
// the contract: each recovered state is a prefix holding every acknowledged
// commit, the table made at run time included, and the LSNs after it go on
// with none skipped.
func TestRestartKeepsTheContract(t *testing.T) {
	const seed = 51
	r := runScenario(t, seed, map[int]bool{130: false, 270: true})
	if n := len(r.recoveries); n != 2 || r.recoveries[0].ReplayedTxns == 0 || r.recoveries[1].CheckpointLSN == 0 {
		t.Fatalf("recoveries %+v: want one that replays records and one from a checkpoint alone", r.recoveries)
	}
	var restarts []Call
	for _, c := range r.history {
		if c.Restart {
			restarts = append(restarts, c)
		}
	}
	if len(restarts) == 0 || !slices.ContainsFunc(restarts, func(c Call) bool { return c.Text == "SELECT * FROM note" && len(c.Rows) > 0 }) {
		t.Fatal("no restart read rows of the table made at run time: the scenario lost its point")
	}
	check(t, r)
	t.Logf("%d calls, %d restart reads, %d backend commits: the contract holds", len(r.history), len(restarts), len(r.wal))
}
