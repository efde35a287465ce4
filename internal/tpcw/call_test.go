package tpcw

import (
	"fmt"
	"maps"
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
	pull := func() error { _, err := c.Pull(); return err }
	return callServer{"backend", b.DB, route(), current}, callServer{"cache", c.DB, route(csrv.Addr()), pull}
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
// name, NULL, a quote inside a string. A value of another type than its
// parameter's, a name in another case, and positional arguments give what the
// call with declared names and types gives. No call changes the caller's
// map, which a server runs the body on when each parameter binds to itself.
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
				res, err := runKeeping(t, path.run, srv, proc, params)
				if err != nil {
					t.Fatalf("%s, %s, %s %v: %v", srv.name, path.name, c.proc, params, err)
				}
				if res.SnapshotLSN != 0 {
					t.Errorf("%s, %s, %s: a call reports snapshot LSN %d", srv.name, path.name, c.proc, res.SnapshotLSN)
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
	// Calls whose binding is not each parameter to itself with a value of its
	// type — a VARCHAR for an INT, an INT for a FLOAT (to a copied writer,
	// which a cache forwards as it arrived), a name in another case — give
	// on every path what the call with the declared names and types gives.
	for _, v := range []struct {
		proc              string
		params, canonical exec.Params
	}{
		{"getBook", exec.Params{"i_id": s("17")}, exec.Params{"i_id": i(17)}},
		{"getBook", exec.Params{"I_ID": i(17)}, exec.Params{"i_id": i(17)}},
		{"getCustomer", exec.Params{"UName": s(Uname(5))}, exec.Params{"uname": s(Uname(5))}},
		{"updateCustomerBalance", exec.Params{"c_id": i(9), "amt": i(-2)}, exec.Params{"c_id": i(9), "amt": f(-2)}},
		{"updateLogin", exec.Params{"C_ID": i(8), "t": ts}, exec.Params{"c_id": i(8), "t": ts}},
	} {
		proc := backend.db.Catalog().Procedure(v.proc)
		for _, srv := range servers {
			if err := srv.catchUp(); err != nil {
				t.Fatal(err)
			}
			want, err := srv.db.CallProcedure(v.proc, v.canonical)
			if err != nil {
				t.Fatalf("%s, %s %v: %v", srv.name, v.proc, v.canonical, err)
			}
			for _, path := range callPaths {
				res, err := runKeeping(t, path.run, srv, proc, v.params)
				if err != nil {
					t.Fatalf("%s, %s, %s %v: %v", srv.name, path.name, v.proc, v.params, err)
				}
				if !same(res, want) || (res.CommitLSN > 0) != proc.Writes() {
					t.Errorf("%s, %s, %s %v: %v, %d affected at LSN %d; %v gave %v, %d affected",
						srv.name, path.name, v.proc, v.params, res.Rows, res.RowsAffected, res.CommitLSN, v.canonical, want.Rows, want.RowsAffected)
				}
			}
		}
	}
	// Positional arguments, a parameter and a literal, and a map holding a
	// name the call does not bind, routed and sent straight to the engine as
	// text, likewise.
	for _, v := range []struct {
		text      string
		params    exec.Params
		proc      string
		canonical exec.Params
	}{
		{"EXEC getBook @x", exec.Params{"x": i(17)}, "getBook", exec.Params{"i_id": i(17)}},
		{"EXEC getBook @i_id = @i_id", exec.Params{"i_id": i(17), "x": i(1)}, "getBook", exec.Params{"i_id": i(17)}},
		{"EXEC updateCustomerBalance @c, -2", exec.Params{"c": i(9)}, "updateCustomerBalance", exec.Params{"c_id": i(9), "amt": f(-2)}},
	} {
		for _, srv := range servers {
			if err := srv.catchUp(); err != nil {
				t.Fatal(err)
			}
			want, err := srv.db.CallProcedure(v.proc, v.canonical)
			if err != nil {
				t.Fatalf("%s, %s %v: %v", srv.name, v.proc, v.canonical, err)
			}
			for name, send := range map[string]func(exec.Params) (*engine.Result, error){
				"routed":     func(p exec.Params) (*engine.Result, error) { return srv.r.Session().Exec(v.text, p) },
				"in process": func(p exec.Params) (*engine.Result, error) { return srv.db.Exec(v.text, p) },
			} {
				kept := maps.Clone(v.params)
				res, err := send(v.params)
				if err != nil || !same(res, want) || !maps.EqualFunc(v.params, kept, types.Identical) {
					t.Errorf("%s, %s, %s %v: %v, %v (the map after: %v); %v gave %v, %d affected",
						srv.name, name, v.text, kept, res, err, v.params, v.canonical, want.Rows, want.RowsAffected)
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
				_, err := runKeeping(t, path.run, srv, c.proc, c.params)
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

// runKeeping runs one call on a path and fails the test if the call changed
// the caller's parameter map, which a server may run the body on.
func runKeeping(t *testing.T, run func(callServer, *catalog.Procedure, exec.Params) (*engine.Result, error),
	srv callServer, proc *catalog.Procedure, params exec.Params) (*engine.Result, error) {
	t.Helper()
	kept := maps.Clone(params)
	res, err := run(srv, proc, params)
	if !maps.EqualFunc(params, kept, types.Identical) {
		t.Errorf("%s, %s: the call changed the caller's map from %v to %v", srv.name, proc.Name, kept, params)
	}
	return res, err
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
// request and response for every frame, 33 while every execution built its
// own context and views, and 20 while each server exchange made a parameter
// map and a handler closure, the cache bound the call's arguments into a map
// of its own and the call's result was a copy of its statement's, and 14
// while each statement's record was a new object.
//
// updateLogin is a copied one-statement writer, which the cache forwards as it
// arrived: each call is one backend commit, and the session's next call waits
// at the cache's gate for it. While the cache ran its copy and forwarded the
// UPDATE as text for the backend to parse, this count was 80 allocations and
// 100 parses; it was 50 before the plan instances kept their context and 29
// before the exchanges kept their map and handler and the backend ran the
// body on the request's map, and 24 while each statement's record was a new
// object with a trace ID formatted as text, on both servers, and 20 while each
// server connection decoded every frame's call shape and parameter names into
// new strings and each execution's read transaction and Result, the Result's
// row slice included, were new objects (getBook's was 11). With those
// interned per connection, kept by the plan instance and pooled, the Result
// released once its response frame is written, updateLogin measured 17 and
// getBook 6, while the router's client decoded every answer's column header
// and its rows into new slices and boxed them in a new Result. Now each
// client connection keeps the headers it has seen, and the router answers
// with a pooled Result whose row and value slices the next answer is decoded
// into; the test releases each Result, as the TPC-W application does:
// getBook measured 2, and 1 while the answer's strings were decoded into a
// new array on every call; they are decoded into the bytes the released
// Result kept now, and it measures 0, the ceiling 0. updateLogin measured 16 while the
// backend's write transaction kept four per-change lists beside its undo
// log and a latch list of its own; with one change log started inside the
// transaction, its latches too, and the redo record built once at commit,
// it measured 11, and 6 while the backend's store allocated each commit's
// snapshot mark and redo record and each inserted row's version and index
// keys one by one; carved from chunks, they make it measure 4, the ceiling
// 4 + 2.
//
// A literal UPDATE sent with Session.Exec, as the benchmark's read-your-writes
// probe is, travels the same way from the cache on: the cache's front door
// lifts its literals into the map and forwards its shape, which the backend's
// front door resolves to its entry and write plan. Each call is one backend
// commit and no parse. While the cache parsed the text only to deparse and
// forward it, and the backend parsed it again and built its write plan for
// that execution, it made 2 parses per call and measured 94 allocations; it
// measured 21, and 15 before the store carved what it keeps from chunks; it
// measures 12, the ceiling 12 + 2.
func TestRoutedCallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	backend, cache := newCallServers(t, DefaultConfig())
	cache.db.SetIMCacheEnabled(false)
	login := types.NewTime(time.Date(2024, 2, 29, 23, 59, 59, 0, time.UTC))
	var probes [500]string // literal UPDATE texts, one per key
	for i := range probes {
		probes[i] = fmt.Sprintf("UPDATE item SET i_stock = 7 WHERE i_id = %d", i+1)
	}
	for _, c := range []struct {
		proc    string
		params  exec.Params // each call sets key to its own value; nil: Session.Exec of a probe text
		key     string
		commits storage.LSN // backend commits over 100 calls
		ceiling float64
	}{
		{"getBook", exec.Params{"i_id": types.Null}, "i_id", 0, 0},
		{"updateLogin", exec.Params{"c_id": types.Null, "t": login}, "c_id", 100, 4 + 2},
		{"literal UPDATE", nil, "", 100, 12 + 2},
	} {
		sess := cache.r.Session()
		next := int64(0)
		call := func() {
			next++
			var res *engine.Result
			var err error
			if c.params == nil {
				res, err = sess.Exec(probes[next%500], nil)
			} else {
				c.params[c.key] = types.NewInt(next%500 + 1)
				res, err = sess.Call(c.proc, c.params)
			}
			if err != nil || len(res.Rows)+int(res.RowsAffected) != 1 {
				t.Fatalf("%s %v: %v, %v", c.proc, c.params, res, err)
			}
			res.Release()
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
