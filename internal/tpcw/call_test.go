package tpcw

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/router"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
	"mtcache/internal/wire"
)

// callServer is one server of a TPC-W pair behind a wire listener, with a
// router that sends every session to it: the backend's routes no cache, the
// cache's routes to that cache. catchUp brings the server to the backend's
// last commit.
type callServer struct {
	name    string
	db      *engine.Database
	r       *router.Router
	catchUp func() error
}

// newCallServers loads a TPC-W pair (cfg), serves both over TCP and routes to
// each.
func newCallServers(t *testing.T, cfg Config) (backend, cache callServer) {
	t.Helper()
	b, c := loadedPair(t, cfg)
	bsrv, err := wire.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bsrv.Close)
	csrv, err := wire.ServeCache(c, "127.0.0.1:0", wire.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(csrv.Close)
	route := func(caches ...string) *router.Router {
		r, err := router.New(router.Config{Backend: bsrv.Addr(), Caches: caches, Reg: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	current := func() error { return nil }
	return callServer{"backend", b.DB, route(), current}, callServer{"cache", c.DB, route(csrv.Addr()), b.SyncReplication}
}

// The four ways a call reaches a server.
var callPaths = []struct {
	name string
	run  func(s callServer, proc *catalog.Procedure, params exec.Params) (*engine.Result, error)
}{
	{"routed Session.Call", func(s callServer, proc *catalog.Procedure, params exec.Params) (*engine.Result, error) {
		res, err := s.r.Session().Call(proc.Name, params)
		if err != nil {
			// The statement ran on the server; the wire wraps what it said.
			err = fmt.Errorf("%s", strings.TrimPrefix(err.Error(), "wire: server: "))
		}
		return res, err
	}},
	{"literal EXEC text", func(s callServer, proc *catalog.Procedure, params exec.Params) (*engine.Result, error) {
		return s.db.Exec(literalCall(proc, params), nil)
	}},
	{"parameterized shape", func(s callServer, proc *catalog.Procedure, params exec.Params) (*engine.Result, error) {
		return s.db.Exec(sql.CallShape(proc.Name, params), params)
	}},
	{"in-process CallProcedure", func(s callServer, proc *catalog.Procedure, params exec.Params) (*engine.Result, error) {
		return s.db.CallProcedure(proc.Name, params)
	}},
}

// literalCall spells a call as a person would type it: the procedure's first
// parameter positional when it is given, every other argument named, each
// value a literal.
func literalCall(proc *catalog.Procedure, params exec.Params) string {
	var args []string
	first := ""
	if len(proc.Params) > 0 {
		if v, ok := params[proc.Params[0].Name]; ok {
			first = proc.Params[0].Name
			args = append(args, v.String())
		}
	}
	names := make([]string, 0, len(params))
	for name := range params {
		if name != first {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		args = append(args, "@"+name+" = "+params[name].String())
	}
	if len(args) == 0 {
		return "EXEC " + proc.Name
	}
	return "EXEC " + proc.Name + " " + strings.Join(args, ", ")
}

// TestCallPathsAgree is the differential over every TPC-W procedure: routed
// through a Session, typed as literal EXEC text, sent as the parameterized
// shape with the values in the named map, and called in process with
// CallProcedure (what a core.Conn calls), a call gives the same rows and the
// same RowsAffected on every path, and the cache (which holds copies of 24 of
// the 29, runs those that only read and forwards every other call) gives what
// the backend gives when it has applied the backend's last commit. A call
// reports a commit LSN exactly when it wrote, and a client UPDATE text reports
// the same row count through the cache as on the backend. A missing, an extra
// and a misspelled parameter, and a procedure nobody has, fail with the same
// text on every path. The arguments include the edge values of the call
// syntax: a negative integer in first (positional) place, a negative float by
// name, NULL, a quote inside a string.
func TestCallPathsAgree(t *testing.T) {
	backend, cache := newCallServers(t, Config{Items: 200, Customers: 300, Seed: 7})
	ts := types.NewTime(time.Date(2024, 2, 29, 23, 59, 59, 123e6, time.UTC))
	i, f, s := types.NewInt, types.NewFloat, types.NewString
	// k tells the (server, path) pairs' writes apart: each inserts its own
	// keys, and updates and deletes what its own inserts made.
	calls := map[string]func(k int64) exec.Params{
		"getName":               func(int64) exec.Params { return exec.Params{"c_id": i(5)} },
		"getCustomer":           func(int64) exec.Params { return exec.Params{"uname": s(Uname(5))} },
		"getPassword":           func(int64) exec.Params { return exec.Params{"uname": s(Uname(6))} },
		"getCDiscount":          func(int64) exec.Params { return exec.Params{"c_id": i(7)} },
		"updateLogin":           func(int64) exec.Params { return exec.Params{"c_id": i(8), "t": ts} },
		"updateCustomerBalance": func(int64) exec.Params { return exec.Params{"c_id": i(9), "amt": f(-1.5)} },
		"createNewCustomer": func(k int64) exec.Params {
			return exec.Params{"c_id": i(100000 + k), "uname": s(fmt.Sprint("new", k)), "passwd": s("pw"),
				"fname": s("it's"), "lname": s("NEW"), "addr_id": i(3), "email": s("n@example.com"), "t": ts}
		},
		"getBook":         func(int64) exec.Params { return exec.Params{"i_id": i(17)} },
		"getRelated":      func(int64) exec.Params { return exec.Params{"i_id": i(18)} },
		"doSubjectSearch": func(int64) exec.Params { return exec.Params{"subject": s("ARTS")} },
		"doTitleSearch":   func(int64) exec.Params { return exec.Params{"title": s("%A%")} },
		"doAuthorSearch":  func(int64) exec.Params { return exec.Params{"author": s("B%")} },
		"getNewProducts":  func(int64) exec.Params { return exec.Params{"subject": s("HISTORY")} },
		"getBestSellers":  func(int64) exec.Params { return exec.Params{"subject": s("ARTS")} },
		"createCart":      func(k int64) exec.Params { return exec.Params{"sc_id": i(500000 + k), "t": ts} },
		"addCartLine": func(k int64) exec.Params {
			return exec.Params{"sc_id": i(500000 + k), "i_id": i(5), "qty": i(2)}
		},
		"updateCartLine": func(k int64) exec.Params {
			return exec.Params{"sc_id": i(500000 + k), "i_id": i(5), "qty": i(3)}
		},
		"clearCart":   func(k int64) exec.Params { return exec.Params{"sc_id": i(500000 + k)} },
		"refreshCart": func(k int64) exec.Params { return exec.Params{"sc_id": i(500000 + k), "t": ts} },
		"getCart":     func(int64) exec.Params { return exec.Params{"sc_id": i(500000)} },
		"enterOrder": func(k int64) exec.Params {
			return exec.Params{"o_id": i(600000 + k), "c_id": i(3), "t": ts, "sub": f(10), "total": f(10.8), "ship": s("AIR")}
		},
		"addOrderLine": func(k int64) exec.Params {
			return exec.Params{"o_id": i(600000 + k), "ol_id": i(2), "i_id": i(4), "qty": i(1), "disc": f(0.05)}
		},
		"enterCCXact": func(k int64) exec.Params {
			return exec.Params{"o_id": i(600000 + k), "type": s("VISA"), "num": s("4111"), "name": s("O'Brien"), "amt": f(10.8), "t": ts}
		},
		"doBuyConfirm": func(k int64) exec.Params {
			return exec.Params{"o_id": i(700000 + k), "c_id": i(3), "t": ts, "sub": f(10), "total": f(10.8),
				"ship": s("AIR"), "i_id": i(6), "qty": i(1), "disc": f(0.05), "sc_id": i(500000 + k)}
		},
		"createCartWithLine": func(k int64) exec.Params {
			return exec.Params{"sc_id": i(800000 + k), "t": ts, "i_id": i(7), "qty": i(1)}
		},
		"getMostRecentOrder": func(int64) exec.Params { return exec.Params{"uname": s(Uname(3))} },
		"getOrderLines":      func(int64) exec.Params { return exec.Params{"o_id": i(1)} },
		"adminUpdate":        func(int64) exec.Params { return exec.Params{"i_id": i(19), "cost": f(12.5), "related": i(20)} },
		"getUserName":        func(int64) exec.Params { return exec.Params{"c_id": i(10)} },
	}
	procs := backend.db.Catalog().Procedures()
	if len(procs) != len(ProcedureDDL) {
		t.Fatalf("fixture: %d procedures on the backend, want %d", len(procs), len(ProcedureDDL))
	}
	type call struct {
		proc   string
		params func(k int64) exec.Params
	}
	var valid []call
	for _, ddl := range ProcedureDDL { // creation order: a cart exists before its lines
		name := strings.Fields(ddl)[2]
		if calls[name] == nil {
			t.Fatalf("no arguments for procedure %s", name)
		}
		valid = append(valid, call{name, calls[name]})
	}
	valid = append(valid,
		call{"getBook", func(int64) exec.Params { return exec.Params{"i_id": i(-5)} }},
		call{"getName", func(int64) exec.Params { return exec.Params{"c_id": types.Null} }},
		call{"getCustomer", func(int64) exec.Params { return exec.Params{"uname": s("it's")} }},
		call{"updateLogin", func(int64) exec.Params { return exec.Params{"c_id": i(11), "t": types.Null} }},
	)
	servers := []callServer{backend, cache}
	// same reports whether res and want agree on rows and rows affected.
	same := func(res, want *engine.Result) bool {
		return fmt.Sprint(res.Rows) == fmt.Sprint(want.Rows) && res.RowsAffected == want.RowsAffected
	}
	for _, c := range valid {
		proc := backend.db.Catalog().Procedure(c.proc)
		var first [2]*engine.Result // each server's answer on the first path
		for p, path := range callPaths {
			var onBackend *engine.Result
			for si, srv := range servers {
				if err := srv.catchUp(); err != nil {
					t.Fatal(err)
				}
				params := c.params(int64(si*len(callPaths) + p))
				res, err := path.run(srv, proc, params)
				if err != nil {
					t.Fatalf("%s, %s, %s %v: %v", srv.name, path.name, c.proc, params, err)
				}
				if wrote := res.CommitLSN > 0; wrote != proc.Writes() {
					t.Errorf("%s, %s, %s: commit LSN %d, but the procedure writes: %v", srv.name, path.name, c.proc, res.CommitLSN, proc.Writes())
				}
				if si == 0 {
					onBackend = res
				} else if !same(res, onBackend) {
					t.Errorf("%s, %s: the cache gave %v, %d affected; the backend %v, %d affected",
						path.name, c.proc, res.Rows, res.RowsAffected, onBackend.Rows, onBackend.RowsAffected)
				}
				if p == 0 {
					first[si] = res
				} else if !same(res, first[si]) {
					t.Errorf("%s, %s, %s: %v, %d affected; %s gave %v, %d affected",
						srv.name, path.name, c.proc, res.Rows, res.RowsAffected, callPaths[0].name, first[si].Rows, first[si].RowsAffected)
				}
			}
		}
	}
	// A client's own DML text, routed and sent straight to the engine, reports
	// the backend's row count through the cache as on the backend.
	const update = "UPDATE item SET i_stock = i_stock + 0 WHERE i_subject = @subject"
	count, err := backend.db.Exec("SELECT COUNT(*) FROM item WHERE i_subject = 'ARTS'", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := count.Rows[0][0].Int()
	for _, srv := range servers {
		for _, send := range []func() (*engine.Result, error){
			func() (*engine.Result, error) { return srv.r.Session().Exec(update, exec.Params{"subject": s("ARTS")}) },
			func() (*engine.Result, error) { return srv.db.Exec(update, exec.Params{"subject": s("ARTS")}) },
		} {
			res, err := send()
			if err != nil {
				t.Fatalf("%s: %s: %v", srv.name, update, err)
			}
			if res.RowsAffected != want || want == 0 || res.CommitLSN == 0 {
				t.Errorf("%s: %s: %d affected at commit LSN %d, want %d at a nonzero LSN", srv.name, update, res.RowsAffected, res.CommitLSN, want)
			}
		}
	}
	for _, srv := range servers {
		for _, c := range []struct {
			why    string
			proc   *catalog.Procedure
			params exec.Params
		}{
			{"missing", backend.db.Catalog().Procedure("getBook"), exec.Params{}},
			{"extra", backend.db.Catalog().Procedure("getBook"), exec.Params{"i_id": i(17), "bogus": i(1)}},
			{"misspelled", backend.db.Catalog().Procedure("getBook"), exec.Params{"id": i(17)}},
			{"extra, forwarded by a cache", backend.db.Catalog().Procedure("adminUpdate"),
				exec.Params{"i_id": i(19), "cost": f(1.5), "related": i(20), "bogus": i(1)}},
			{"no such procedure", &catalog.Procedure{Name: "noSuchProc"}, exec.Params{"a": i(1)}},
		} {
			var texts []string
			for _, path := range callPaths {
				_, err := path.run(srv, c.proc, c.params)
				if err == nil {
					t.Fatalf("%s, %s: a %s parameter did not fail", srv.name, path.name, c.why)
				}
				texts = append(texts, err.Error())
			}
			if slices.ContainsFunc(texts, func(text string) bool { return text != texts[0] }) {
				t.Errorf("%s: a %s parameter fails differently by path:\n  %s", srv.name, c.why, strings.Join(texts, "\n  "))
			}
		}
	}
}

// TestRoutedCallAllocBudget: a procedure call from the application's side of
// a router to a cache and back — routed over TCP to a TPC-W cache, the result
// cache off so every call executes — and everything the process allocates on
// the way: the router's request, both ends of the wire, the cache engine and,
// for a call the cache forwards, the backend's. The call travels as its shape
// with the values in the named map, so after the first call no server parses
// it: the count of engine.parse_seconds does not move over 100 calls.
//
// getBook runs on the cache's copy. When the router deparsed the call to
// literal text and the cache parsed it, this count was 61 allocations and 100
// parses; it was 42 while a wire round trip built a fresh call slot, timer,
// request and response for every frame. It is 33 now, the ceiling 33 + 2.
//
// updateLogin is a copied one-statement writer, which the cache forwards as it
// arrived: each call is one backend commit, and the session's next call waits
// at the cache's gate for it. While the cache ran its copy and forwarded the
// UPDATE as text for the backend to parse, this count was 80 allocations and
// 100 parses. It is 50 now, the ceiling 50 + 2.
func TestRoutedCallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	backend, cache := newCallServers(t, DefaultConfig())
	cache.db.SetIMCacheEnabled(false)
	login := types.NewTime(time.Date(2024, 2, 29, 23, 59, 59, 0, time.UTC))
	for _, c := range []struct {
		proc    string
		params  exec.Params // each call sets key to its own value
		key     string
		commits storage.LSN // backend commits over 100 calls
		ceiling float64
	}{
		{"getBook", exec.Params{"i_id": types.Null}, "i_id", 0, 35},
		{"updateLogin", exec.Params{"c_id": types.Null, "t": login}, "c_id", 100, 52},
	} {
		sess := cache.r.Session()
		next := int64(0)
		call := func() {
			next++
			c.params[c.key] = types.NewInt(next%500 + 1)
			res, err := sess.Call(c.proc, c.params)
			if err != nil || len(res.Rows)+int(res.RowsAffected) != 1 {
				t.Fatalf("%s %v: %v, %v", c.proc, c.params, res, err)
			}
		}
		call() // warm the shape, plan and connection
		parses := metrics.Default.Histogram("engine.parse_seconds")
		parsed0, wal0 := parses.Count(), backend.db.Store().WAL().End()
		for n := 0; n < 100; n++ {
			call()
		}
		if n := parses.Count() - parsed0; n != 0 {
			t.Errorf("%s: %d parses over 100 warm routed calls, want 0", c.proc, n)
		}
		if n := backend.db.Store().WAL().End() - wal0; n != c.commits {
			t.Errorf("%s: %d backend commits over 100 warm routed calls, want %d", c.proc, n, c.commits)
		}
		avg := testing.AllocsPerRun(300, call)
		t.Logf("routed %s: %.0f allocs per call", c.proc, avg)
		if avg > c.ceiling {
			t.Errorf("routed %s: %.0f allocs per call, ceiling %.0f", c.proc, avg, c.ceiling)
		}
	}
}
