package router

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
	"mtcache/internal/wire"
)

// farRows is how many rows far has: enough that the plan of a parameterized
// range over it estimates more rows than a released Result keeps.
const farRows = 1000

// wordRows is how many rows word has, each with a string of 12 to 18 bytes.
const wordRows = 200

// fleet is a real 1-backend/N-cache deployment over TCP: every server
// speaks the wire protocol, every cache holds a full cached view of kv (64
// rows) and a view of word's first wordRows/2 rows, and none holds far
// (farRows rows).
type fleet struct {
	backend     *core.BackendServer
	backendSrv  *wire.Server
	caches      []*wire.RemoteCache
	cacheSrvs   []*wire.Server
	cacheAddrs  []string
	backendAddr string
}

func newFleet(t *testing.T, nCaches int, pullInterval time.Duration) *fleet {
	t.Helper()
	b := core.NewBackend("backend")
	if err := b.ExecScript(`CREATE TABLE kv (id INT PRIMARY KEY, v INT); CREATE TABLE far (id INT PRIMARY KEY, v INT);`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 64; i++ {
		if err := b.ExecScript(fmt.Sprintf("INSERT INTO kv (id, v) VALUES (%d, 0)", i)); err != nil {
			t.Fatal(err)
		}
	}
	far := make([]types.Row, farRows)
	for i := range far {
		far[i] = types.Row{types.NewInt(int64(i + 1)), types.NewInt(int64(i + 1))}
	}
	if err := b.DB.BulkLoad("far", far); err != nil {
		t.Fatal(err)
	}
	if err := b.ExecScript(`CREATE TABLE word (id INT PRIMARY KEY, w VARCHAR(40));`); err != nil {
		t.Fatal(err)
	}
	word := make([]types.Row, wordRows)
	for i := range word {
		word[i] = types.Row{types.NewInt(int64(i + 1)), types.NewString(fmt.Sprintf("word-%07d%s", i+1, "xxxxxx"[:i%7]))}
	}
	if err := b.DB.BulkLoad("word", word); err != nil {
		t.Fatal(err)
	}
	b.DB.Analyze()
	bsrv, err := wire.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bsrv.Close)

	f := &fleet{backend: b, backendSrv: bsrv, backendAddr: bsrv.Addr()}
	for i := 0; i < nCaches; i++ {
		client, err := wire.Dial(bsrv.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := wire.NewRemoteCache(fmt.Sprintf("cache%d", i), client, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rc.CreateCachedView("CREATE CACHED VIEW cv_kv AS SELECT id, v FROM kv"); err != nil {
			t.Fatal(err)
		}
		if err := rc.CreateCachedView(fmt.Sprintf("CREATE CACHED VIEW cv_word AS SELECT id, w FROM word WHERE id <= %d", wordRows/2)); err != nil {
			t.Fatal(err)
		}
		if pullInterval > 0 {
			rc.StartPulling(pullInterval)
			t.Cleanup(rc.StopPulling)
		}
		csrv, err := wire.ServeCache(rc, "127.0.0.1:0", wire.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(csrv.Close)
		f.caches = append(f.caches, rc)
		f.cacheSrvs = append(f.cacheSrvs, csrv)
		f.cacheAddrs = append(f.cacheAddrs, csrv.Addr())
	}
	return f
}

func (f *fleet) router(t *testing.T, reg *metrics.Registry) *Router {
	t.Helper()
	r, err := New(Config{
		Backend:   f.backendAddr,
		Caches:    f.cacheAddrs,
		Timeout:   2 * time.Second,
		Watermark: 500 * time.Millisecond,
		Reg:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// Read-your-writes must hold with NO background pull agent: replication lag
// is unbounded unless the session gate forces the cache to catch up (or the
// router bypasses to the backend). A session that writes v then reads must
// see at least v, every time.
func TestRouterReadYourWritesUnderLag(t *testing.T) {
	f := newFleet(t, 2, 0) // no background pulling: worst-case lag
	reg := metrics.NewRegistry()
	r := f.router(t, reg)
	s := r.Session()

	for v := int64(1); v <= 20; v++ {
		if _, err := s.Exec(fmt.Sprintf("UPDATE kv SET v = %d WHERE id = 1", v), nil); err != nil {
			t.Fatal(err)
		}
		if s.Watermark() == 0 {
			t.Fatal("write did not advance the session watermark")
		}
		res, err := s.Exec("SELECT v FROM kv WHERE id = 1", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("want 1 row, got %d", len(res.Rows))
		}
		if got := res.Rows[0][0].Int(); got < v {
			t.Fatalf("stale read: wrote %d, read %d", v, got)
		}
	}
}

// A second session (its own watermark 0) still reads from its pinned cache
// without gating — the common no-write path stays cache-local.
func TestRouterUnwrittenSessionReadsCache(t *testing.T) {
	f := newFleet(t, 2, 0)
	reg := metrics.NewRegistry()
	r := f.router(t, reg)
	s := r.Session()

	res, err := s.Exec("SELECT COUNT(*) FROM kv", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 64 {
		t.Fatalf("count = %d, want 64", res.Rows[0][0].Int())
	}
	if got := reg.Counter("router.backend_direct").Value(); got != 0 {
		t.Fatalf("read went backend-direct (%d), want cache-local", got)
	}
	if got := reg.Gauge("router.sessions_pinned").Value(); got != 1 {
		t.Fatalf("sessions_pinned = %v, want 1", got)
	}
}

// Killing the pinned cache mid-session must spill reads to the next live
// cache WITHOUT losing the session's watermark: the spill target has to
// catch up to the same LSN before answering.
func TestRouterFailoverPreservesWatermark(t *testing.T) {
	f := newFleet(t, 2, 0)
	reg := metrics.NewRegistry()
	r := f.router(t, reg)
	s := r.Session()

	if _, err := s.Exec("UPDATE kv SET v = 42 WHERE id = 2", nil); err != nil {
		t.Fatal(err)
	}
	w := s.Watermark()
	if w == 0 {
		t.Fatal("no watermark after write")
	}

	// Kill the cache the session is pinned to.
	pinned := s.pin
	f.cacheSrvs[pinned].Close()

	res, err := s.Exec("SELECT v FROM kv WHERE id = 2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 42 {
		t.Fatalf("failover read = %d, want 42", got)
	}
	if s.Watermark() < w {
		t.Fatalf("watermark regressed across failover: %d -> %d", w, s.Watermark())
	}
	if reg.Counter("router.failovers").Value() == 0 {
		t.Fatal("failover not recorded")
	}

	// The session re-pinned to the live spill target (or went backend
	// direct); either way the next read must succeed without error.
	if _, err := s.Exec("SELECT v FROM kv WHERE id = 2", nil); err != nil {
		t.Fatalf("read after re-pin: %v", err)
	}
	if s.pin == pinned && reg.Counter("router.backend_direct").Value() == 0 {
		t.Fatal("session still pinned to the dead cache")
	}
}

// Torture: many sessions writing and reading their own rows concurrently,
// with background pulling racing the session gate. Run with -race. Every
// session must read its own latest write, always.
func TestRouterMultiSessionTorture(t *testing.T) {
	f := newFleet(t, 3, 5*time.Millisecond)
	reg := metrics.NewRegistry()
	r := f.router(t, reg)

	const (
		sessions = 8
		rounds   = 15
	)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := r.Session()
			row := g + 1
			for k := int64(1); k <= rounds; k++ {
				if _, err := s.Exec(fmt.Sprintf("UPDATE kv SET v = %d WHERE id = %d", k, row), nil); err != nil {
					errs <- fmt.Errorf("session %d write %d: %w", g, k, err)
					return
				}
				res, err := s.Exec(fmt.Sprintf("SELECT v FROM kv WHERE id = %d", row), nil)
				if err != nil {
					errs <- fmt.Errorf("session %d read %d: %w", g, k, err)
					return
				}
				if got := res.Rows[0][0].Int(); got < k {
					errs <- fmt.Errorf("session %d: stale read %d after writing %d", g, got, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := reg.Gauge("router.sessions_pinned").Value(); got != sessions {
		t.Fatalf("sessions_pinned = %v, want %d", got, sessions)
	}
}

// Stored-procedure calls route through the session too, and a procedure
// call that updates advances the watermark like raw DML.
func TestRouterProcedureCall(t *testing.T) {
	f := newFleet(t, 2, 0)
	if err := f.backend.ExecScript(`
		CREATE PROCEDURE setV @id INT, @v INT AS
			UPDATE kv SET v = @v WHERE id = @id;
		CREATE PROCEDURE getV @id INT AS
			SELECT v FROM kv WHERE id = @id;
	`); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	r := f.router(t, reg)
	s := r.Session()

	if _, err := s.Call("setV", exec.Params{"id": types.NewInt(3), "v": types.NewInt(77)}); err != nil {
		t.Fatal(err)
	}
	if s.Watermark() == 0 {
		t.Fatal("procedure write did not advance the watermark")
	}
	res, err := s.Call("getV", exec.Params{"id": types.NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 77 {
		t.Fatalf("proc read = %d, want 77", got)
	}

	// Conn() hides all of this behind the application-facing surface.
	conn := s.Conn()
	res, err = conn.Exec("SELECT v FROM kv WHERE id = 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 77 {
		t.Fatalf("conn read = %d, want 77", got)
	}
}

// TestRoutedRemoteReadAllocBudget: what a warm routed read of a table no
// cache holds allocates, counting every hop in the process — the session,
// the cache's wire server, the cache's remote query over its back hop and
// the backend's wire server — when the caller releases each answer. For a
// point read the ceiling is the measured count of objects, 1: the trace ID
// the cache's remote query sends as text (trace.FormatID). The rows, values
// and strings of an answer live in the Result or the ResultSet that carries
// it, recycled with it, on the front hop and the remote hop alike; the count
// was 4 (under a ceiling of 5) while the cache's remote query decoded each
// answer into a new ResultSet, rows, values and string. A caller that keeps
// its Results instead takes one, with that storage, out of the pool for
// good on every read: the count goes to 4 (it was 7). For a 100-row range,
// whose shape's plan estimates 160 rows, the ceiling is on bytes, 400, above
// the 180 measured: the cache and the backend each fill the row slice a
// released Result kept, and both hops decode into recycled storage. It was
// 7 800 bytes in 4 objects while the remote hop decoded each answer into
// new storage (under a ceiling of 19 500 set at 17 000 measured, before the
// row slice and the values of an answer were recycled on the front hop),
// and 27 900 bytes in 9 objects while each side made a 160-row slice for
// every read (the bare estimate).
func TestRoutedRemoteReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	f := newFleet(t, 1, 0)
	f.caches[0].DB.SetIMCacheEnabled(false)
	s := f.router(t, metrics.NewRegistry()).Session()
	// reads returns a read of texts[i] for i = 1, 2, …, in a ring; the i-th
	// text's answer has rows rows, the first with key first(i).
	reads := func(texts []string, rows int, first func(i int) int64) func() {
		next := 0
		return func() {
			next = (next + 1) % len(texts)
			res, err := s.Exec(texts[next], nil)
			if err != nil || len(res.Rows) != rows || res.Rows[0][0].Int() != first(next) {
				t.Fatalf("%s: %v, %v", texts[next], res, err)
			}
			res.Release()
		}
	}
	var points, ranges [64]string // literal SELECTs, one shape each
	for i := range points {
		points[i] = fmt.Sprintf("SELECT v FROM far WHERE id = %d", i+1)
		ranges[i] = fmt.Sprintf("SELECT id, v FROM far WHERE id >= %d AND id < %d", 13*i+1, 13*i+101)
	}
	read := reads(points[:], 1, func(i int) int64 { return int64(i + 1) })
	for range points { // warm every shape, plan and connection
		read()
	}
	avg := testing.AllocsPerRun(300, read)
	t.Logf("routed remote read: %.0f allocs", avg)
	if avg > 1 {
		t.Errorf("routed remote read: %.0f allocs, ceiling 1", avg)
	}

	read = reads(ranges[:], 100, func(i int) int64 { return int64(13*i + 1) })
	for range ranges {
		read()
	}
	objects, bytes := perRun(300, read)
	t.Logf("routed 100-row range: %.0f allocs, %.0f bytes", objects, bytes)
	if bytes > 400 {
		t.Errorf("routed 100-row range: %.0f bytes, ceiling 400", bytes)
	}
}

// TestRoutedStringReadMakesNoStringArray: a warm routed read whose answer
// has a string column, released by its caller, decodes its strings into the
// bytes the router's Result kept from an earlier answer, and a cache whose
// plan reads the backend decodes the backend's answer into the storage of a
// ResultSet recycled when the cache's Result was: neither hop makes a string
// array. Each read is a 40-row range of word, inside the cache's view
// (answered by the cache) or past it (read from the backend), 560 to 680
// bytes of strings; the ceilings are the measured counts of objects, 0 and
// the one trace ID a cache's remote query sends as text (trace.FormatID),
// and 400 bytes, less than any answer's strings, above the 40 to 220
// measured (what the runtime allocates now and then, averaged over the
// runs). Every answer's strings were a new array on each hop it crossed
// while only row headers and values were recycled.
func TestRoutedStringReadMakesNoStringArray(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	f := newFleet(t, 1, 0)
	f.caches[0].DB.SetIMCacheEnabled(false)
	s := f.router(t, metrics.NewRegistry())
	for _, c := range []struct {
		name    string
		first   int // the first key of the windows, which start 3 apart
		objects float64
	}{
		{"answered by the cache", 1, 0},
		{"read from the backend", wordRows/2 + 1, 1},
	} {
		sess := s.Session()
		var texts, firstWords [16]string // literal SELECTs, one shape, and their first rows' strings
		for i := range texts {
			lo := c.first + 3*i
			texts[i] = fmt.Sprintf("SELECT id, w FROM word WHERE id >= %d AND id < %d", lo, lo+40)
			firstWords[i] = fmt.Sprintf("word-%07d%s", lo, "xxxxxx"[:(lo-1)%7])
		}
		next := 0
		read := func() {
			next = (next + 1) % len(texts)
			res, err := sess.Exec(texts[next], nil)
			if err != nil || len(res.Rows) != 40 || res.Rows[0][1].Str() != firstWords[next] {
				t.Fatalf("%s: %v, %v", texts[next], res, err)
			}
			res.Release()
		}
		for range texts { // warm every plan, connection and pool
			read()
		}
		objects := testing.AllocsPerRun(300, read)
		_, bytes := perRun(300, read)
		t.Logf("routed string read %s: %.0f allocs, %.0f bytes", c.name, objects, bytes)
		if objects > c.objects || bytes > 400 {
			t.Errorf("routed string read %s: %.0f allocs, %.0f bytes; ceilings %.0f and 400", c.name, objects, bytes, c.objects)
		}
	}
}

// TestFreshResultRegrowsOnce: a Result the router has just made (the pool
// had none) gets arrays exactly as long as its first answer, a one-row read
// the cache answers; recycled for every read after it, as Release recycles
// its storage, it then answers TOP n reads the cache answers, n = 5, 10, …,
// 50, each longer than the one before. Its row headers and its values are
// replaced at most once each: by arrays as long as the longest answer
// recycled storage has held, which a 50-row read on another Result has
// shown. Every answer regrew both, to its exact length, when a replacement
// was exactly as long as the answer that needed it: ten times each here.
func TestFreshResultRegrowsOnce(t *testing.T) {
	f := newFleet(t, 1, 0)
	f.caches[0].DB.SetIMCacheEnabled(false)
	s := f.router(t, metrics.NewRegistry()).Session()
	var tops [10]string
	for i := range tops {
		tops[i] = fmt.Sprintf("SELECT TOP %d id, v FROM kv ORDER BY id DESC", 5*(i+1))
	}
	for _, text := range tops { // warm every plan; the last answer is the longest
		res, err := s.Exec(text, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}

	res := new(engine.Result)
	answer := func(text string, rows int) { // every answer's first row is id 64
		t.Helper()
		res.Store.Reset()
		if err := s.route(text, nil, res); err != nil || len(res.Rows) != rows || res.Rows[0][0].Int() != 64 {
			t.Fatalf("%s: %v, %v", text, res.Rows, err)
		}
	}
	answer("SELECT id, v FROM kv WHERE id = 64", 1)
	rowArray, valArray := unsafe.SliceData(res.Rows), unsafe.SliceData(res.Rows[0])
	var rowRegrowths, valRegrowths int
	for i, text := range tops {
		answer(text, 5*(i+1))
		if a := unsafe.SliceData(res.Rows); a != rowArray {
			rowArray, rowRegrowths = a, rowRegrowths+1
		}
		if a := unsafe.SliceData(res.Rows[0]); a != valArray {
			valArray, valRegrowths = a, valRegrowths+1
		}
	}
	t.Logf("TOP 5 … TOP 50 on a fresh Result: %d row-header and %d value arrays made", rowRegrowths, valRegrowths)
	if rowRegrowths > 1 || valRegrowths > 1 {
		t.Errorf("TOP 5 … TOP 50 on a fresh Result replaced its row headers %d times and its values %d times; want at most once each", rowRegrowths, valRegrowths)
	}
}

// perRun is testing.AllocsPerRun's count of objects per run of fn, and the
// bytes.
func perRun(runs int, fn func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}
