package router

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
	"mtcache/internal/wire"
)

// farRows is how many rows far has: enough that the plan of a parameterized
// range over it estimates more rows than a released Result keeps.
const farRows = 1000

// fleet is a real 1-backend/N-cache deployment over TCP: every server
// speaks the wire protocol, every cache holds a full cached view of kv (64
// rows), and none holds far (farRows rows).
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
// point read the ceiling is the measured count of objects, 5. A caller that
// keeps its Results instead takes one out of the pool for good on every
// read, and a server's next Result is then a new one: the count goes to 8.
// For a 100-row range, whose shape's plan estimates 160 rows, the ceiling is
// on bytes, 15 % above the 17 000 measured: the cache and the backend each
// fill the row slice a released Result kept. With a 160-row slice made on
// each side for every read (the bare estimate) a read cost 27 900 bytes in 9
// objects, against 6 now.
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
	if avg > 5 {
		t.Errorf("routed remote read: %.0f allocs, ceiling 5", avg)
	}

	read = reads(ranges[:], 100, func(i int) int64 { return int64(13*i + 1) })
	for range ranges {
		read()
	}
	objects, bytes := perRun(300, read)
	t.Logf("routed 100-row range: %.0f allocs, %.0f bytes", objects, bytes)
	if bytes > 19500 {
		t.Errorf("routed 100-row range: %.0f bytes, ceiling 19500", bytes)
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
