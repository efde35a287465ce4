package wire

import (
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/imcache"
	"mtcache/internal/resilience"
	"mtcache/internal/types"
)

// TestReleasedSlabsNeverReachKeptRows: what an answer's rows live in is
// recycled once whoever holds it lets go — a cache server's Result its slab
// of values and the remote answers its plan read (the rows, values and
// string bytes the back hop decoded), a routed Result the rows, values and
// strings the front hop decoded — and what outlives the holder must not
// change. Every released holder here is poisoned: the next execution of the
// same plan shape, 'poison' in every column, carves its values over the slab
// or decodes its rows and strings over the storage. A result-cache entry
// admitted, or refreshed, from a local plan's Result must not change, read
// back by the next hit; a shape whose plan reads the backend must keep
// answering what the backend holds (the result cache admits no execution
// that made a remote call). A procedure's answer — its last statement's rows,
// taken over from a Result the call released, with the slab behind them —
// must not change, whether that statement read the cache's view or the
// backend; nor a forwarded call's answer, nor an answer a client decoded from
// the frame a server wrote before releasing its Result: the slab's local
// rows, a remote read's and a forwarded call's, each checked against the
// backend's own answer. A routed Result the caller keeps unreleased must not
// change while other routed answers are decoded into released ones, and a
// round trip that timed out must not hand the storage it lent to the pool,
// since a response that lands late may still be decoded into it. On one P
// the pools hand the storage just released to the poisoning execution, and
// the test checks that the poison did land in it, string bytes included
// (not under -race, where a sync.Pool drops what it is given at random).
func TestReleasedSlabsNeverReachKeptRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		victim = "SELECT TOP 50 name, qty FROM part WHERE type = 'Tire' AND qty >= @q ORDER BY id"
		poison = "SELECT TOP 50 'poison', 'poison' FROM part WHERE type = 'Tire' AND qty >= @q ORDER BY id"
		// No cached view holds a Bolt or a P: the cache reads these from the
		// backend, with one plan. A victim row's strings take 11 bytes, a
		// poison row's 7 ('poison', 'P'), so the poison fits in, and lands
		// in, the victim's string bytes.
		remoteVictim = "SELECT TOP 50 name, type FROM part WHERE type = 'Bolt' AND qty >= @q ORDER BY id"
		remotePoison = "SELECT TOP 50 name, type FROM part WHERE type = 'P' AND qty >= @q ORDER BY id"
		forwarded    = "EXEC boltNames @q" // the backend's procedure, which the cache holds no copy of
	)
	b, srv := newWiredBackend(t)
	if err := b.ExecScript("CREATE PROCEDURE boltNames @q INT AS BEGIN " + remoteVictim + "; END"); err != nil {
		t.Fatal(err)
	}
	for id := 2001; id <= 2050; id++ {
		if _, err := b.Exec("INSERT INTO part (id, name, type, qty) VALUES (@id, 'poison', 'P', 0)", exec.Params{"id": types.NewInt(int64(id))}); err != nil {
			t.Fatal(err)
		}
	}
	rc, err := NewRemoteCache("poisoned", dial(t, srv), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.CreateCachedView("CREATE CACHED VIEW tires AS SELECT id, name, qty FROM part WHERE type = 'Tire'"); err != nil {
		t.Fatal(err)
	}
	for _, proc := range []string{
		"CREATE PROCEDURE twoReads @q INT AS BEGIN SELECT COUNT(*) FROM part WHERE type = 'Tire' AND qty >= @q; " + victim + "; END",
		"CREATE PROCEDURE twoRemoteReads @q INT AS BEGIN SELECT COUNT(*) FROM part WHERE type = 'Bolt' AND qty >= @q; " + remoteVictim + "; END",
	} {
		if err := rc.CopyProcedureText(proc); err != nil {
			t.Fatal(err)
		}
	}
	csrv, err := ServeCache(rc, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer csrv.Close()
	c := dial(t, csrv)

	render := func(rows []types.Row) string {
		var sb strings.Builder
		for _, r := range rows {
			for _, v := range r {
				sb.WriteString(v.Display())
				sb.WriteByte('|')
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	args := func(q int64) exec.Params { return exec.Params{"q": types.NewInt(q)} }
	run := func(text string, q int64) *engine.Result {
		t.Helper()
		res, err := rc.Exec(text, args(q))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 50 {
			t.Fatalf("%s with @q = %d: %d rows, want 50", text, q, len(res.Rows))
		}
		return res
	}
	// truth is the backend's own answer to text.
	truth := func(text string, q int64) string {
		t.Helper()
		res, err := b.Exec(text, args(q))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
		return render(res.Rows)
	}
	fresh := int64(0) // each poisoning execution binds a value of its own: never a result-cache hit
	// A poisoner runs its poisoning execution; the Result, whose release
	// would clear the poison, is released only at its next run.
	type poisoner struct {
		text string
		held *engine.Result
	}
	local, remote := &poisoner{text: poison}, &poisoner{text: remotePoison}
	poisonNow := func(ps ...*poisoner) {
		t.Helper()
		for _, p := range ps {
			fresh--
			p.held.Release()
			p.held = run(p.text, fresh)
		}
	}
	defer func() { local.held.Release(); remote.held.Release() }()
	// landed checks that the poison landed in the rows released holds
	// returned: their values, and for a decoded answer their strings' bytes.
	landed := func(what string, carved []types.Row, first types.Value, decoded bool) {
		t.Helper()
		if raceEnabled {
			return
		}
		if carved[0][0].Str() != "poison" {
			t.Fatalf("%s: the next execution did not carve or decode over the released storage (row 0 reads %v)", what, carved[0])
		}
		// The victim's first string started the string bytes, where the
		// poison's first row now is.
		if s := first.Str(); decoded && !strings.HasPrefix("poisonP", s[:min(len(s), 7)]) {
			t.Fatalf("%s: the next answer was not decoded over the released string bytes (%q)", what, s)
		}
	}
	// releaseAndPoison releases res and poisons the storage it held.
	releaseAndPoison := func(what string, res *engine.Result, p *poisoner) {
		t.Helper()
		carved, first := slices.Clone(res.Rows), res.Rows[0][0] // row headers into the storage, and a string in it
		res.Release()
		poisonNow(p)
		landed(what, carved, first, p == remote)
	}

	// The result cache: an entry admitted from a local plan, then refreshed.
	const admitted = 0
	first := run(victim, admitted) // a candidate
	want := render(first.Rows)
	first.Release()
	releaseAndPoison("admission", run(victim, admitted), local)
	hit := run(victim, admitted)
	if got := render(hit.Rows); got != want {
		t.Fatalf("the entry admitted from a released Result changed:\n%s\nwant\n%s", got, want)
	}
	hit.Release()

	// A write to a row the answer holds, pulled, leaves the entry stale; the
	// next execution refreshes it from a Result that is then released.
	if _, err := b.Exec("UPDATE part SET name = 'renamed' WHERE id = 4", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Pull(); err != nil {
		t.Fatal(err)
	}
	local.held.Release() // its slab, warm, is the one the refresh carves from
	local.held = nil
	refreshed := run(victim, admitted)
	want = render(refreshed.Rows)
	if !strings.Contains(want, "renamed") {
		t.Fatalf("the refresh did not read the write:\n%s", want)
	}
	releaseAndPoison("refresh", refreshed, local)
	hit = run(victim, admitted)
	if got := render(hit.Rows); got != want {
		t.Fatalf("the entry refreshed from a released Result changed:\n%s\nwant\n%s", got, want)
	}
	hit.Release()

	// A read of the backend, run as often as an entry is admitted after: each
	// answer's storage is poisoned before the next run.
	want = truth(remoteVictim, admitted)
	for i := 0; i < 3; i++ {
		res := run(remoteVictim, admitted)
		if got := render(res.Rows); got != want {
			t.Fatalf("remote read %d answered\n%s\nwant the backend's\n%s", i, got, want)
		}
		releaseAndPoison("remote read", res, remote)
	}

	// A procedure's answer is its last statement's rows; the call released
	// the Result it took them from. Each call binds a value of its own, so
	// its statements execute.
	for q := int64(1); q <= 3; q++ {
		for _, call := range []struct{ proc, last string }{{"twoReads", victim}, {"twoRemoteReads", remoteVictim}} {
			res, err := rc.DB.CallProcedure(call.proc, args(q))
			if err != nil {
				t.Fatal(err)
			}
			poisonNow(local, remote)
			if got, want := render(res.Rows), truth(call.last, q); got != want {
				t.Fatalf("%s call %d: the procedure's answer changed after the next executions:\n%s\nwant\n%s", call.proc, q, got, want)
			}
			res.Release()
		}
	}

	// A forwarded call's answer is the storage its Result's slab adopted: it
	// is recycled on release, and kept until then.
	releaseAndPoison("forwarded call", run(forwarded, 1), remote)
	for q := int64(2); q <= 4; q++ {
		res := run(forwarded, q)
		poisonNow(remote)
		if got, want := render(res.Rows), truth(remoteVictim, q); got != want {
			t.Fatalf("forwarded call %d: the answer changed after the next remote read:\n%s\nwant\n%s", q, got, want)
		}
		res.Release()
	}

	// The server releases its Result once the frame is written; what the
	// client decoded is its own.
	for q := int64(1); q <= 3; q++ {
		for _, text := range []string{victim, remoteVictim, forwarded} {
			rs, err := c.Query(text, args(200+q))
			if err != nil {
				t.Fatal(err)
			}
			want := truth(text, 200+q)
			if got := render(rs.Rows); got != want {
				t.Fatalf("%s, answer %d: the client decoded\n%s\nwant the backend's\n%s", text, q, got, want)
			}
			poisonNow(local, remote)
			if got := render(rs.Rows); got != want {
				t.Fatalf("%s, answer %d changed after the server's next executions:\n%s\nwant\n%s", text, q, got, want)
			}
		}
	}

	// The result cache copies what it admits, strings included: an entry
	// admitted straight from a decoded remote answer — which a cache never
	// admits, its plan having made a remote call — still reads the same
	// once the answer's storage is recycled and decoded over.
	direct := dial(t, srv)
	imc := imcache.New(imcache.Options{AdmitAfter: 1})
	key := imcache.KeyOf(remoteVictim, nil)
	rs, err := direct.Query(remoteVictim, args(admitted))
	if err != nil {
		t.Fatal(err)
	}
	want = render(rs.Rows)
	if !imc.Observe(imcache.Observation{Key: key, Cols: rs.Cols, Rows: rs.Rows, Lineage: []string{"part"}, CostNs: 1}, nil) {
		t.Fatal("a decoded remote answer was not admitted")
	}
	carved, firstStr := slices.Clone(rs.Rows), rs.Rows[0][0]
	rs.Recycle()
	fresh--
	poisonedRS, err := direct.Query(remotePoison, args(fresh))
	if err != nil {
		t.Fatal(err)
	}
	landed("admission of a decoded answer", carved, firstStr, true)
	if hit, ok := imc.Lookup(key, nil); !ok || render(hit.Rows) != want {
		t.Fatalf("the entry admitted from a recycled remote answer changed:\n%s\nwant\n%s", render(hit.Rows), want)
	}
	poisonedRS.Recycle()

	// The front hop: a routed Result decodes into the storage it owns, which
	// its Release recycles for the next routed answer; one the caller keeps
	// unreleased is never decoded into again.
	into := func(text string, q int64) *engine.Result {
		t.Helper()
		res := engine.NewResult()
		if _, err := c.QueryInto(text, args(q), 0, 0, res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	keptRes := into(remoteVictim, 300)
	want = truth(remoteVictim, 300)
	for q := int64(301); q <= 303; q++ {
		res := into(remoteVictim, q)
		carved, first := slices.Clone(res.Rows), res.Rows[0][0]
		// The cache's server releases its Results into the same pool: one
		// held out, the next routed answer takes the one just released.
		held := engine.NewResult()
		res.Release()
		fresh--
		poisoned := into(remotePoison, fresh)
		landed("routed answer", carved, first, true)
		poisoned.Release()
		held.Release()
		if got := render(keptRes.Rows); got != want {
			t.Fatalf("a routed answer kept unreleased changed after answer %d:\n%s\nwant\n%s", q, got, want)
		}
	}
	keptRes.Release()

	// A round trip that times out forfeits the storage it lent: a response
	// that lands late is decoded into it (here by hand, as the read loop
	// does when it took the round trip's slot before the timer fired), and
	// none of it may be an answer's by then.
	late, err := Dial(silentServer(t), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	warm, err := direct.Query(remoteVictim, args(400))
	if err != nil {
		t.Fatal(err)
	}
	warm.Recycle() // the storage the timed-out round trip takes from the pool
	claimed := make(chan *call, 1)
	go func() { // the read loop's part: take the round trip's slot from pending
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
			late.mu.Lock()
			for id, cl := range late.pending {
				delete(late.pending, id)
				late.mu.Unlock()
				claimed <- cl
				return
			}
			late.mu.Unlock()
		}
		close(claimed)
	}()
	if _, err := late.Query(remoteVictim, args(400)); !errors.Is(err, resilience.ErrTimeout) {
		t.Fatalf("a round trip to a server that never answers: %v, want a timeout", err)
	}
	cl := <-claimed
	if cl == nil {
		t.Fatal("the timed-out round trip's slot was never pending")
	}
	rs, err = direct.Query(remoteVictim, args(401))
	if err != nil {
		t.Fatal(err)
	}
	want = render(rs.Rows)
	poisoned := make([]types.Row, 50)
	for i := range poisoned {
		poisoned[i] = types.Row{types.NewString("poison"), types.NewString("p")}
	}
	lateFrame := appendResponse(nil, &response{Kind: reqQuery, Cols: rs.Cols, Rows: poisoned})
	if err := decodeResponse(lateFrame, &cl.resp, headers{}, interner{}); err != nil {
		t.Fatal(err)
	}
	if got := render(rs.Rows); got != want {
		t.Fatalf("a late response to a timed-out round trip was decoded into a later answer:\n%s\nwant\n%s", got, want)
	}
	rs.Recycle()
}

// silentServer accepts one connection and reads its frames without ever
// answering one; it returns its address.
func silentServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Write(preface[:]); err == nil {
			io.Copy(io.Discard, conn) // until the client closes
		}
	}()
	return ln.Addr().String()
}
