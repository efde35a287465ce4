package wire

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/repl"
	"mtcache/internal/storage"
	"mtcache/internal/tpcw"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// headerBytes is the length of cols' encoded header, the bytes a client
// connection's header table keys it by.
func headerBytes(cols []exec.ColInfo) int {
	return len(appendResultSet(nil, cols, nil)) - 2 // the empty row and value counts
}

// TestSeenHeadersAreShared: a client connection decodes a column header it
// has seen before into nothing — two answers with the same header share one
// []exec.ColInfo — while a header that differs in any column's Kind or Table
// is its own; the table keeps to its bounds, and a header too long to keep
// decodes as the same columns every time.
func TestSeenHeadersAreShared(t *testing.T) {
	cols := []exec.ColInfo{
		{Table: "item", Name: "i_id", Kind: types.KindInt},
		{Table: "item", Name: "i_title", Kind: types.KindString},
		{Name: "expr", Kind: types.KindFloat},
	}
	decode := func(hdrs headers, cols []exec.ColInfo) []exec.ColInfo {
		t.Helper()
		var resp response
		frame := appendResponse(nil, &response{Kind: reqQuery, Cols: cols, Rows: []types.Row{{types.NewInt(1)}}})
		if err := decodeResponse(frame, &resp, hdrs, interner{}); err != nil {
			t.Fatal(err)
		}
		if !sameResponse(&resp, &response{Kind: reqQuery, Cols: cols, Rows: []types.Row{{types.NewInt(1)}}}) {
			t.Fatalf("%v decoded as %v", cols, resp.Cols)
		}
		return resp.Cols
	}
	hdrs := headers{}
	first := decode(hdrs, cols)
	if again := decode(hdrs, cols); &again[0] != &first[0] {
		t.Error("the same header decoded twice into two column slices")
	}
	hdr := appendResultSet(nil, cols, nil)
	if n := testing.AllocsPerRun(100, func() {
		d := types.Decoder{Buf: hdr}
		hdrs.cols(&d)
	}); n != 0 {
		t.Errorf("a seen header decoded in %v allocations", n)
	}
	for name, edit := range map[string]func(c []exec.ColInfo){
		"a Kind":  func(c []exec.ColInfo) { c[1].Kind = types.KindTime },
		"a Table": func(c []exec.ColInfo) { c[2].Table = "item" },
		"a Name":  func(c []exec.ColInfo) { c[0].Name = "i_ID" },
	} {
		other := append([]exec.ColInfo(nil), cols...)
		edit(other)
		if got := decode(hdrs, other); &got[0] == &first[0] {
			t.Errorf("a header differing in %s shares the first one's columns", name)
		}
		if again := decode(hdrs, cols); &again[0] != &first[0] {
			t.Errorf("after a header differing in %s, the first one decoded anew", name)
		}
	}

	// Bounded: every header a new one, the table never holds more than
	// internEntries of them.
	for i := 0; i < 3*internEntries; i++ {
		decode(hdrs, []exec.ColInfo{{Name: fmt.Sprint("c", i), Kind: types.KindInt}})
		if len(hdrs) > internEntries {
			t.Fatalf("%d headers kept, bound %d", len(hdrs), internEntries)
		}
	}

	// Too long to keep: decoded every time, into the same columns.
	wide := make([]exec.ColInfo, 12)
	for i := range wide {
		wide[i] = exec.ColInfo{Table: "item", Name: fmt.Sprintf("c%d_%s", i, strings.Repeat("x", internLen/len(wide))), Kind: types.KindString}
	}
	if n := headerBytes(wide); n <= internLen {
		t.Fatalf("the wide header is %d bytes, not over the bound %d", n, internLen)
	}
	clear(hdrs)
	w1, w2 := decode(hdrs, wide), decode(hdrs, wide)
	if len(hdrs) != 0 || &w1[0] == &w2[0] {
		t.Errorf("a %d-byte header was kept, bound %d", headerBytes(wide), internLen)
	}
}

// TestEveryTPCWHeaderIsKept: every column header a TPC-W session and the
// benchmark's ad hoc statements are answered with — by a cache, by the
// backend a router bypasses to, and by the backend a cache's remote
// subqueries go to — fits internLen, so a client connection keeps it.
func TestEveryTPCWHeaderIsKept(t *testing.T) {
	longest, longestCols := 0, []exec.ColInfo(nil)
	note := func(cols []exec.ColInfo) {
		if n := headerBytes(cols); n > longest {
			longest, longestCols = n, cols
		}
	}
	b := core.NewBackend("backend")
	cfg := tpcw.Config{Items: 200, Customers: 300, OrdersPerCustomer: 0.9, Seed: 42}
	if err := tpcw.Load(b, cfg); err != nil {
		t.Fatal(err)
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	link, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	c, err := core.NewCacheOver("cache", noting{link, note}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := tpcw.SetupCache(c); err != nil {
		t.Fatal(err)
	}
	adhoc := []string{
		"SELECT i_title, i_cost, i_srp FROM item WHERE i_id = 1",
		"SELECT i.i_title, a.a_fname, a.a_lname FROM item i, author a WHERE i.i_a_id = a.a_id AND i.i_id = 1",
		"SELECT TOP 50 i_id, i_title, i_cost FROM item WHERE i_subject = 'ARTS' ORDER BY i_title",
		"SELECT i_id, i_title FROM item WHERE i_id >= 1 AND i_id < 101",
		"SELECT COUNT(*), SUM(ol_qty) FROM order_line WHERE ol_i_id = 1",
		"SELECT c_fname, c_lname, c_email FROM customer WHERE c_id = 1",
		"SELECT c_id, c_passwd FROM customer WHERE c_uname = '" + tpcw.Uname(1) + "'",
		"SELECT c.c_fname, a.addr_city, co.co_name FROM customer c, address a, country co " +
			"WHERE c.c_addr_id = a.addr_id AND a.addr_co_id = co.co_id AND c.c_id = 1",
		"SELECT c_id, c_uname FROM customer WHERE c_id >= 1 AND c_id < 101",
		"SELECT TOP 1 o.o_id, o.o_date, o.o_total, o.o_status, o.o_ship_type FROM customer c, orders o " +
			"WHERE c.c_uname = '" + tpcw.Uname(1) + "' AND o.o_c_id = c.c_id ORDER BY o.o_id DESC",
		"SELECT i_stock FROM item WHERE i_id = 1",
	}
	for _, db := range []*engine.Database{c.DB, b.DB} {
		noted := func(res *engine.Result, err error) (*engine.Result, error) {
			if err == nil {
				note(res.Cols)
			}
			return res, err
		}
		conn := core.NewConn(db.Name,
			func(q string, p exec.Params) (*engine.Result, error) { return noted(db.Exec(q, p)) },
			func(q string, p exec.Params) (*engine.Result, error) { return noted(db.CallProcedure(q, p)) })
		app := tpcw.NewApp(conn, cfg)
		s := app.NewSession(7)
		for range 3 {
			for _, in := range tpcw.Interactions() {
				if _, err := app.Run(s, in); err != nil {
					t.Fatalf("%s on %s: %v", in, db.Name, err)
				}
			}
		}
		for _, q := range adhoc {
			if _, err := conn.Exec(q, nil); err != nil {
				t.Fatalf("%s on %s: %v", q, db.Name, err)
			}
		}
	}
	t.Logf("longest header: %d bytes, bound %d: %v", longest, internLen, longestCols)
	if longest == 0 || longest > internLen {
		t.Errorf("longest header %d bytes, bound %d: %v", longest, internLen, longestCols)
	}
}

// noting is a cache's backend link that shows every remote answer's columns
// to note.
type noting struct {
	*Client
	note func([]exec.ColInfo)
}

func (n noting) Query(q string, p exec.Params) (*exec.ResultSet, error) {
	rs, _, err := n.QueryTraced(q, p, "")
	return rs, err
}

func (n noting) QueryTraced(q string, p exec.Params, traceID string) (*exec.ResultSet, *trace.WireSpan, error) {
	rs, span, err := n.Client.QueryTraced(q, p, traceID)
	if err == nil {
		n.note(rs.Cols)
	}
	return rs, span, err
}

// TestPulledTableNamesAreShared: a client connection decodes the table name
// of a pulled change through its intern table — the names of every change
// in a warm pull share one string each, a pull decodes to the same batches
// through a warm table as through a cold one, the table keeps to its bounds,
// and a name too long to keep decodes correctly every time, uninterned.
func TestPulledTableNamesAreShared(t *testing.T) {
	pull := func(tables ...string) *response {
		resp := &response{Kind: reqPull, ID: 1, ThroughLSN: 9, Batches: []repl.TxnBatch{{LSN: 8, CommitTime: time.Unix(0, 0).UTC()}}}
		for i, table := range tables {
			resp.Batches[0].Changes = append(resp.Batches[0].Changes,
				storage.ChangeRec{Table: table, Op: storage.OpInsert, After: types.Row{types.NewInt(int64(i))}})
		}
		return resp
	}
	decode := func(names interner, want *response) []storage.ChangeRec {
		t.Helper()
		var got response
		if err := decodeResponse(appendResponse(nil, want), &got, headers{}, names); err != nil {
			t.Fatal(err)
		}
		if !sameResponse(&got, want) {
			t.Fatalf("pull decoded as %+v, want %+v", got, want)
		}
		return got.Batches[0].Changes
	}
	names := interner{}
	first := decode(names, pull("order_line", "orders", "order_line"))
	again := decode(names, pull("orders", "order_line"))
	if unsafe.StringData(first[0].Table) != unsafe.StringData(first[2].Table) ||
		unsafe.StringData(again[1].Table) != unsafe.StringData(first[0].Table) ||
		unsafe.StringData(again[0].Table) != unsafe.StringData(first[1].Table) {
		t.Error("a table name a connection has seen decoded into a new string")
	}
	cold := decode(interner{}, pull("orders", "order_line"))
	if cold[0].Table != again[0].Table || cold[1].Table != again[1].Table {
		t.Errorf("cold table decoded %q, warm %q", []storage.ChangeRec{cold[0], cold[1]}, again)
	}

	// Bounded: every name a new one, the table never holds more than
	// internEntries of them.
	for i := 0; i < 3*internEntries; i++ {
		decode(names, pull(fmt.Sprint("t", i)))
		if len(names) > internEntries {
			t.Fatalf("%d names kept, bound %d", len(names), internEntries)
		}
	}

	// Too long to keep: decoded every time, correctly.
	long := strings.Repeat("x", internLen+1)
	clear(names)
	l1, l2 := decode(names, pull(long)), decode(names, pull(long))
	if len(names) != 0 || unsafe.StringData(l1[0].Table) == unsafe.StringData(l2[0].Table) {
		t.Errorf("a %d-byte table name was kept, bound %d", len(long), internLen)
	}
}
