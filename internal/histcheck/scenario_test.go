package histcheck

import (
	"fmt"
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

// recorder is a fault-free fleet — a backend, two caches with the paper's
// cached views and procedure copies, and the router, every hop over loopback
// — with no pull agent, and the history of every statement its sessions
// sent, with the backend's log captured as it grows.
type recorder struct {
	t       *testing.T
	backend *core.BackendServer
	caches  []*wire.RemoteCache
	router  *router.Router
	history []Call
	wal     []storage.CommitRecord
}

func newRecorder(t *testing.T) *recorder {
	t.Helper()
	b := core.NewBackend("backend")
	if err := tpcw.Load(b, scenarioConfig); err != nil {
		t.Fatal(err)
	}
	bsrv, err := wire.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bsrv.Close)
	r := &recorder{t: t, backend: b}
	var addrs []string
	for i := 1; i <= 2; i++ {
		client, err := wire.Dial(bsrv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
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
		t.Cleanup(csrv.Close)
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
	t.Cleanup(r.router.Close)
	return r
}

// conn is session id's application connection: every statement goes through
// rs and into the history.
func (r *recorder) conn(id int, rs *router.Session) *core.Conn {
	send := func(text string, params exec.Params, write bool) (*engine.Result, error) {
		res, err := rs.Exec(text, params)
		if err != nil {
			return nil, fmt.Errorf("session %d: %s: %w", id, text, err)
		}
		c := Call{Session: id, Text: text, Params: params, Write: write,
			RowsAffected: res.RowsAffected, CommitLSN: res.CommitLSN}
		if !write {
			for _, row := range res.Rows {
				c.Rows = append(c.Rows, slices.Clone(row)) // res goes back to its pool
			}
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

// record adds c, answered just now, to the history, with the backend log's
// end, and captures the records the log gained since the last call — before
// a pull's acknowledgement lets the backend truncate them.
func (r *recorder) record(c Call) {
	wal := r.backend.DB.Store().WAL()
	c.End = wal.End()
	r.history = append(r.history, c)
	next := storage.LSN(1)
	if n := len(r.wal); n > 0 {
		next = r.wal[n-1].LSN + 1
	}
	recs := wal.ReadFrom(next, 0)
	if len(recs) > 0 && recs[0].LSN != next {
		r.t.Fatalf("the log was truncated past %d before it was captured", next)
	}
	r.wal = append(r.wal, recs...)
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
// every staleness, and every kind of write text is forwarded by a cache.
func runScenario(t *testing.T, seed int64) *recorder {
	r := newRecorder(t)
	rng := rand.New(rand.NewSource(seed))
	type session struct {
		conn *core.Conn
		app  *tpcw.App
		s    *tpcw.Session
	}
	var sessions []session
	for i := 0; i < 8; i++ {
		conn := r.conn(i, r.router.Session())
		app := tpcw.NewApp(conn, scenarioConfig)
		if i > 0 {
			app.ShareIDsWith(sessions[0].app)
		}
		sessions = append(sessions, session{conn, app, app.NewSession(seed + int64(i))})
	}
	key := func() int { // one of the loaded items 1–4 or the keys past the load
		id := 1 + rng.Intn(8)
		if id > 4 {
			id += scenarioConfig.Items - 4
		}
		return id
	}
	added := map[int]bool{} // keys past the load an INSERT added
	for step := 0; step < 400; step++ {
		s := sessions[rng.Intn(len(sessions))]
		var text string
		switch x := rng.Intn(20); {
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
		res, err := s.conn.Exec(text, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	return r
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
	r := runScenario(t, seed)
	if counter("imcache.hits") == hits || counter("imcache.invalidations") == invalidations {
		t.Fatal("the result cache never served or never invalidated an entry: the scenario lost its point")
	}
	if again := runScenario(t, seed); again.digest() != r.digest() {
		t.Fatal("two runs of one seed sent different statements or got different answers")
	}
	oracle := core.NewBackend("oracle")
	if err := tpcw.Load(oracle, scenarioConfig); err != nil {
		t.Fatal(err)
	}
	v, err := Check(r.history, r.wal, oracle.DB)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatal(v)
	}
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
