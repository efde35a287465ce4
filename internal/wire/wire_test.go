package wire

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/exec"
	"mtcache/internal/types"
)

func newWiredBackend(t testing.TB) (*core.BackendServer, *Server) {
	t.Helper()
	b := core.NewBackend("backend")
	err := b.ExecScript(`
		CREATE TABLE part (
			id INT PRIMARY KEY,
			name VARCHAR(40) NOT NULL,
			type VARCHAR(20),
			qty INT
		);
	`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		typ := "Tire"
		if i%4 != 0 {
			typ = "Bolt"
		}
		stmt := fmt.Sprintf("INSERT INTO part (id, name, type, qty) VALUES (%d, 'part%d', '%s', %d)", i, i, typ, i)
		if _, err := b.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	b.DB.Analyze()
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return b, srv
}

func dial(t testing.TB, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestWireQueryAndExec(t *testing.T) {
	_, srv := newWiredBackend(t)
	c := dial(t, srv)

	rs, err := c.Query("SELECT name FROM part WHERE id = @id", exec.Params{"id": types.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "part7" {
		t.Fatalf("query: %v", rs.Rows)
	}
	rs, err = c.Query("UPDATE part SET qty = 0 WHERE id = 7", nil)
	if err != nil || rs.RowsAffected != 1 || rs.CommitLSN == 0 {
		t.Fatalf("update: %+v, %v", rs, err)
	}
	rs, _ = c.Query("SELECT qty FROM part WHERE id = 7", nil)
	if rs.Rows[0][0].Int() != 0 {
		t.Error("update lost")
	}
}

func TestWireErrorPropagation(t *testing.T) {
	_, srv := newWiredBackend(t)
	c := dial(t, srv)
	if _, err := c.Query("SELECT nope FROM missing", nil); err == nil {
		t.Fatal("server error not propagated")
	}
	// Connection must survive an error response.
	if _, err := c.Query("SELECT COUNT(*) FROM part", nil); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestWireRemoteCacheEndToEnd(t *testing.T) {
	b, srv := newWiredBackend(t)
	c := dial(t, srv)
	rc, err := NewRemoteCache("tcpcache", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shadow setup happened over the wire.
	if rc.DB.Catalog().Table("part") == nil {
		t.Fatal("shadow table missing")
	}
	if rc.DB.Catalog().Table("part").Stats.Load().RowCount != 1000 {
		t.Error("shadowed stats missing")
	}

	// Cached view provisioned over the wire with initial population.
	err = rc.CreateCachedView("CREATE CACHED VIEW tires AS SELECT id, name, qty FROM part WHERE type = 'Tire'")
	if err != nil {
		t.Fatal(err)
	}
	if got := rc.DB.TableRowCount("tires"); got != 250 {
		t.Fatalf("initial population: %d", got)
	}

	// Local query served from the cached view.
	res, err := rc.DB.Exec("SELECT name FROM part WHERE type = 'Tire' AND id = 4", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Counters.RemoteQueries != 0 {
		t.Errorf("local hit expected: rows=%d remote=%d", len(res.Rows), res.Counters.RemoteQueries)
	}

	// Update on the backend flows through a pull round.
	b.Exec("UPDATE part SET qty = 12345 WHERE id = 4", nil)
	if _, err := rc.Pull(); err != nil {
		t.Fatal(err)
	}
	res, _ = rc.DB.Exec("SELECT qty FROM part WHERE type = 'Tire' AND id = 4", nil)
	if res.Rows[0][0].Int() != 12345 {
		t.Error("pulled update not applied")
	}

	// Forwarded DML through the cache reaches the backend over TCP.
	if _, err := rc.DB.Exec("INSERT INTO part (id, name, type, qty) VALUES (5000, 'new tire', 'Tire', 1)", nil); err != nil {
		t.Fatal(err)
	}
	if b.DB.TableRowCount("part") != 1001 {
		t.Error("forwarded insert missing on backend")
	}
	if _, err := rc.Pull(); err != nil {
		t.Fatal(err)
	}
	if got := rc.DB.TableRowCount("tires"); got != 251 {
		t.Errorf("pull after forwarded insert: %d", got)
	}
}

func TestWireBackgroundPulling(t *testing.T) {
	b, srv := newWiredBackend(t)
	c := dial(t, srv)
	rc, err := NewRemoteCache("tcpcache", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.CreateCachedView("CREATE CACHED VIEW allparts AS SELECT id, name, qty FROM part"); err != nil {
		t.Fatal(err)
	}
	rc.StartPulling(2 * time.Millisecond)
	defer rc.StopPulling()

	b.Exec("UPDATE part SET name = 'pulled' WHERE id = 9", nil)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		res, _ := rc.DB.Exec("SELECT name FROM part WHERE id = 9", nil)
		if len(res.Rows) == 1 && res.Rows[0][0].Str() == "pulled" && res.Counters.RemoteQueries == 0 {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatal("background pull did not converge")
}

func TestWirePaperDistributedQuery(t *testing.T) {
	// The paper's §2.1 linked-server example, with orderline local to the
	// cache... here the cache holds no local table, so the whole query ships.
	_, srv := newWiredBackend(t)
	c := dial(t, srv)
	rc, err := NewRemoteCache("tcpcache", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rc.DB.Exec("SELECT ps.name FROM part ps WHERE ps.qty > 500 AND ps.type = 'Tire'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Counters.RemoteQueries != 1 {
		t.Errorf("rows=%d remote=%d", len(res.Rows), res.Counters.RemoteQueries)
	}
}

func TestWireConcurrentClients(t *testing.T) {
	_, srv := newWiredBackend(t)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			cl, err := Dial(srv.Addr(), time.Second)
			if err != nil {
				done <- err
				return
			}
			defer cl.Close()
			for j := 0; j < 25; j++ {
				if _, err := cl.Query("SELECT COUNT(*) FROM part", nil); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWireServerCloseFailsClientsGracefully(t *testing.T) {
	b, srv := newWiredBackend(t)
	_ = b
	c := dial(t, srv)
	if _, err := c.Query("SELECT COUNT(*) FROM part", nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := c.Query("SELECT COUNT(*) FROM part", nil); err == nil {
		t.Fatal("query against a closed server should fail")
	}
}

func TestWireDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("dialing an unreachable address should fail")
	}
}

func TestWireMultipleRemoteCaches(t *testing.T) {
	b, srv := newWiredBackend(t)
	var caches []*RemoteCache
	for i := 0; i < 3; i++ {
		cl := dial(t, srv)
		rc, err := NewRemoteCache(fmt.Sprintf("tcpcache%d", i), cl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rc.CreateCachedView("CREATE CACHED VIEW tires AS SELECT id, name, qty FROM part WHERE type = 'Tire'"); err != nil {
			t.Fatal(err)
		}
		caches = append(caches, rc)
	}
	b.Exec("UPDATE part SET qty = 777 WHERE id = 4", nil)
	for i, rc := range caches {
		if _, err := rc.Pull(); err != nil {
			t.Fatal(err)
		}
		res, _ := rc.DB.Exec("SELECT qty FROM part WHERE type = 'Tire' AND id = 4", nil)
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 777 {
			t.Errorf("cache %d did not converge: %v", i, res.Rows)
		}
	}
}

func TestWireLargeResultSet(t *testing.T) {
	_, srv := newWiredBackend(t)
	c := dial(t, srv)
	rs, err := c.Query("SELECT id, name, type, qty FROM part", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1000 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
}

// TestKeptParameterMapCarriesNothingOver: a server's exchange decodes each
// request into the parameter map it kept from its last, and a call that binds
// each parameter to itself runs its body on that map, so no name one request
// sent may be found by a later one. On one connection a request sends @a and
// @b, then one sends only @b to a text that reads @a: the second fails as it
// would on a fresh connection, a SELECT with "missing parameter @a" and an
// EXEC with "missing value for @a". Then goroutines sharing one client each
// send their own names and values and must get their own answers.
func TestKeptParameterMapCarriesNothingOver(t *testing.T) {
	b, srv := newWiredBackend(t)
	if _, err := b.Exec("CREATE PROCEDURE partName @id INT AS SELECT name FROM part WHERE id = @id", nil); err != nil {
		t.Fatal(err)
	}
	c := dial(t, srv)
	for _, q := range []struct{ text, want string }{
		{"SELECT name FROM part WHERE id = @a", "missing parameter @a"},
		{"EXEC partName @id = @a", "missing value for @a"},
	} {
		for round := 0; round < 3; round++ {
			rs, err := c.Query(q.text, exec.Params{"a": types.NewInt(7), "b": types.NewInt(8)})
			if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "part7" {
				t.Fatalf("%s with @a = 7: %+v, %v", q.text, rs, err)
			}
			if _, err := c.Query(q.text, exec.Params{"b": types.NewInt(8)}); err == nil || !strings.Contains(err.Error(), q.want) {
				t.Fatalf("%s with only @b: %v, want %q", q.text, err, q.want)
			}
		}
	}

	const goroutines, calls = 8, 60
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			own := fmt.Sprintf("p%d", g)
			texts := []string{
				"SELECT name FROM part WHERE id = @" + own,
				"EXEC partName @id = @" + own,
				"EXEC partName @id = @id", // the body runs on the request's map
			}
			for n := 0; n < calls; n++ {
				id := 1 + (g*calls+n)%1000
				text := texts[n%len(texts)]
				params := exec.Params{own: types.NewInt(int64(id))}
				if n%len(texts) == 2 {
					params = exec.Params{"id": types.NewInt(int64(id))}
				}
				rs, err := c.Query(text, params)
				if err != nil {
					errs <- fmt.Errorf("%s %v: %w", text, params, err)
					return
				}
				if want := fmt.Sprintf("part%d", id); len(rs.Rows) != 1 || rs.Rows[0][0].Str() != want {
					errs <- fmt.Errorf("%s %v: %v, want %s", text, params, rs.Rows, want)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
