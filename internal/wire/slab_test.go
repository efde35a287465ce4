package wire

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// TestReleasedSlabsNeverReachKeptRows: a cache server's answer takes the
// values of the rows its operators build from a slab the server recycles once
// the Result is released. Every released slab here is poisoned — the next
// execution, of the same plan shape with 'poison' in every column, carves
// over it — and what outlives the Result must not change: a result-cache
// entry admitted, or refreshed, from that Result (read back by the next hit),
// a procedure's answer (its last statement's rows, taken over from a Result
// the call released, with the slab behind them), and an answer a client
// decoded from the frame the server wrote before releasing. On one P the pool
// hands the slab just released to the poisoning execution, and the test checks
// that the poison did land in it (not under -race, where a sync.Pool drops
// what it is given at random).
func TestReleasedSlabsNeverReachKeptRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b, srv := newWiredBackend(t)
	rc, err := NewRemoteCache("poisoned", dial(t, srv), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.CreateCachedView("CREATE CACHED VIEW tires AS SELECT id, name, qty FROM part WHERE type = 'Tire'"); err != nil {
		t.Fatal(err)
	}
	const (
		victim = "SELECT TOP 50 name, qty FROM part WHERE type = 'Tire' AND qty >= @q ORDER BY id"
		poison = "SELECT TOP 50 'poison', 'poison' FROM part WHERE type = 'Tire' AND qty >= @q ORDER BY id"
	)
	if err := rc.CopyProcedureText("CREATE PROCEDURE twoReads @q INT AS BEGIN " +
		"SELECT COUNT(*) FROM part WHERE type = 'Tire' AND qty >= @q; " + victim + "; END"); err != nil {
		t.Fatal(err)
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
	run := func(text string, q int64) *engine.Result {
		t.Helper()
		res, err := rc.Exec(text, exec.Params{"q": types.NewInt(q)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 50 {
			t.Fatalf("%s with @q = %d: %d rows, want 50", text, q, len(res.Rows))
		}
		return res
	}
	fresh := int64(0) // each poisoning execution binds a value of its own: never a result-cache hit
	// poisonNow runs the poisoning execution; its Result, whose release would
	// clear the poison, is released only after the next check.
	var poisoned *engine.Result
	poisonNow := func() {
		t.Helper()
		fresh--
		poisoned.Release()
		poisoned = run(poison, fresh)
	}
	defer func() { poisoned.Release() }()
	// releaseAndPoison releases res and poisons the slab it held, checking
	// that the poison landed in the rows res returned.
	releaseAndPoison := func(what string, res *engine.Result) {
		t.Helper()
		carved := slices.Clone(res.Rows) // row headers into the slab
		res.Release()
		poisonNow()
		if !raceEnabled && carved[0][0].Str() != "poison" {
			t.Fatalf("%s: the next execution did not carve over the released slab (row 0 reads %v)", what, carved[0])
		}
	}
	const admitted = 0
	first := run(victim, admitted) // a candidate
	want := render(first.Rows)
	first.Release()
	releaseAndPoison("admission", run(victim, admitted))
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
	poisoned.Release() // its slab, warm, is the one the refresh carves from
	poisoned = nil
	refreshed := run(victim, admitted)
	want = render(refreshed.Rows)
	if !strings.Contains(want, "renamed") {
		t.Fatalf("the refresh did not read the write:\n%s", want)
	}
	releaseAndPoison("refresh", refreshed)
	hit = run(victim, admitted)
	if got := render(hit.Rows); got != want {
		t.Fatalf("the entry refreshed from a released Result changed:\n%s\nwant\n%s", got, want)
	}
	hit.Release()

	// A procedure's answer is its last statement's rows; the call released
	// the Result it took them from. Each call binds a value of its own, so
	// its statements execute.
	for q := int64(1); q <= 3; q++ {
		res, err := rc.DB.CallProcedure("twoReads", exec.Params{"q": types.NewInt(q)})
		if err != nil {
			t.Fatal(err)
		}
		poisonNow()
		want := run(victim, q)
		if got := render(res.Rows); got != render(want.Rows) {
			t.Fatalf("call %d: the procedure's answer changed after the next execution:\n%s\nwant\n%s", q, got, render(want.Rows))
		}
		res.Release()
		want.Release()
	}

	// The server releases its Result once the frame is written; what the
	// client decoded is its own.
	for q := int64(1); q <= 3; q++ {
		rs, err := c.Query(victim, exec.Params{"q": types.NewInt(200 + q)})
		if err != nil {
			t.Fatal(err)
		}
		want := render(rs.Rows)
		poisonNow()
		if got := render(rs.Rows); got != want || strings.Contains(got, "poison") {
			t.Fatalf("answer %d changed after the server's next execution:\n%s\nwant\n%s", q, got, want)
		}
	}
}
