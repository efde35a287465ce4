// The real scale-out experiment: K mtcache-server processes against one
// backend, with routed TPC-W traffic and a read-your-writes probe. This is
// the paper's §6.2.1 deployment run for real — every cache is a separate OS
// process speaking the wire protocol, every session goes through the
// client-side router, and WIPS is measured, not simulated. (The capacity
// simulation the paper's figures are scaled from is
// `go test ./internal/sim -run TestExperiment -v`.)
//
// Two modes:
//
//   - self-contained (default): the parent loads TPC-W into an in-process
//     backend, serves it on a loopback port, and spawns K copies of itself
//     (hidden -scaleout-child flag) as cache processes, for K = 1..-scaleout-k.
//   - external (-backend-addr + -cache-addrs): route over servers someone
//     else booted (CI smoke uses backend-server + mtcache-server -serve).
//
// Alongside the workload, a dedicated probe session alternates
// write-then-read on a row no workload session touches; any read observing
// a value older than the session's own write is a read-your-writes
// violation and fails the run.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/metrics"
	"mtcache/internal/obs"
	"mtcache/internal/resilience"
	"mtcache/internal/router"
	"mtcache/internal/tpcw"
	"mtcache/internal/wire"
)

// scaleoutOpts carries the scale-out experiment's knobs from main.
type scaleoutOpts struct {
	cfg         tpcw.Config
	maxK        int           // self-contained mode: measure K = 1..maxK caches
	sessions    int           // emulated browsers per cache server
	benchDur    time.Duration // measurement window per (K, workload) point
	benchJSON   string        // output path ("" = BENCH_scaleout.json)
	backendAddr string        // external mode: backend wire address
	cacheAddrs  string        // external mode: comma-separated cache wire addresses
	obsAddr     string        // observability HTTP endpoint ("" disables)
}

// scaleoutPoint is one measured (caches, workload) cell.
type scaleoutPoint struct {
	Caches       int     `json:"caches"`
	Workload     string  `json:"workload"`
	Sessions     int     `json:"sessions"`
	Interactions int64   `json:"interactions"`
	Errors       int64   `json:"errors"`
	WIPS         float64 `json:"wips"`
}

// scaleoutResult is the BENCH_scaleout.json document.
type scaleoutResult struct {
	Mode          string          `json:"mode"` // "spawned" or "external"
	Items         int             `json:"items"`
	Customers     int             `json:"customers"`
	DurationMs    int64           `json:"duration_ms"`
	Points        []scaleoutPoint `json:"points"`
	ProbeWrites   int64           `json:"probe_writes"`
	ProbeStale    int64           `json:"probe_stale_misses"`
	RYWBypass     int64           `json:"ryw_bypass"`
	Failovers     int64           `json:"failovers"`
	BackendDirect int64           `json:"backend_direct"`
	Repins        int64           `json:"repins"`
}

func runScaleout(o scaleoutOpts) {
	if o.benchJSON == "" {
		o.benchJSON = "BENCH_scaleout.json"
	}
	if o.sessions < 1 {
		o.sessions = 4
	}
	if o.obsAddr != "" {
		bound, closeHTTP, err := obs.Serve(o.obsAddr, nil, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scaleout: obs:", err)
			os.Exit(1)
		}
		defer closeHTTP() //nolint:errcheck
		fmt.Fprintf(os.Stderr, "router observability on http://%s/metrics\n", bound)
	}

	res := &scaleoutResult{Items: o.cfg.Items, Customers: o.cfg.Customers, DurationMs: o.benchDur.Milliseconds()}

	var backendAddr string
	var cacheAddrs []string
	if o.backendAddr != "" && o.cacheAddrs != "" {
		// External mode: the fleet is already running; measure one point per
		// workload at K = all provided caches.
		res.Mode = "external"
		backendAddr = o.backendAddr
		for _, a := range strings.Split(o.cacheAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cacheAddrs = append(cacheAddrs, a)
			}
		}
	} else {
		res.Mode = "spawned"
		backend := core.NewBackend("backend")
		fmt.Fprintf(os.Stderr, "loading TPC-W (%d items, %d customers)...\n", o.cfg.Items, o.cfg.Customers)
		if err := tpcw.Load(backend, o.cfg); err != nil {
			fmt.Fprintln(os.Stderr, "scaleout: load:", err)
			os.Exit(1)
		}
		backend.DB.Analyze()
		bsrv, err := wire.Serve(backend, "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scaleout:", err)
			os.Exit(1)
		}
		defer bsrv.Close()
		backendAddr = bsrv.Addr()

		fmt.Fprintf(os.Stderr, "backend on %s; spawning %d cache processes...\n", backendAddr, o.maxK)
		children, addrs, err := spawnCaches(backendAddr, o.maxK)
		if err != nil {
			for _, c := range children {
				c.kill()
			}
			fmt.Fprintln(os.Stderr, "scaleout:", err)
			os.Exit(1)
		}
		defer func() {
			for _, c := range children {
				c.kill()
			}
		}()
		cacheAddrs = addrs
	}

	fmt.Println("== real scale-out: routed TPC-W over a cache fleet (paper §6.2.1, measured) ==")
	fmt.Printf("%-10s %8s %10s %14s %8s\n", "Workload", "Caches", "Sessions", "Interactions", "WIPS")

	fromK := 1
	if res.Mode == "external" {
		fromK = len(cacheAddrs) // external fleets are fixed-size: one point
	}
	for k := fromK; k <= len(cacheAddrs); k++ {
		for _, w := range []tpcw.Workload{tpcw.Browsing, tpcw.Shopping} {
			pt, err := measureScaleoutPoint(backendAddr, cacheAddrs[:k], o, w, res)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scaleout:", err)
				os.Exit(1)
			}
			res.Points = append(res.Points, *pt)
			fmt.Printf("%-10s %8d %10d %14d %8.0f\n", pt.Workload, pt.Caches, pt.Sessions, pt.Interactions, pt.WIPS)
		}
	}

	reg := metrics.Default
	res.RYWBypass = reg.Counter("router.ryw_bypass").Value()
	res.Failovers = reg.Counter("router.failovers").Value()
	res.BackendDirect = reg.Counter("router.backend_direct").Value()
	res.Repins = reg.Counter("router.repins").Value()

	fmt.Printf("\nread-your-writes probe: %d writes, %d stale misses\n", res.ProbeWrites, res.ProbeStale)
	fmt.Printf("router: ryw_bypass=%d failovers=%d backend_direct=%d repins=%d\n",
		res.RYWBypass, res.Failovers, res.BackendDirect, res.Repins)

	if err := writeScaleoutJSON(o.benchJSON, res); err != nil {
		fmt.Fprintln(os.Stderr, "scaleout:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", o.benchJSON)

	if res.ProbeStale > 0 {
		fmt.Fprintf(os.Stderr, "scaleout: FAIL: %d stale read(s) violated read-your-writes\n", res.ProbeStale)
		os.Exit(1)
	}
	if res.ProbeWrites == 0 {
		fmt.Fprintln(os.Stderr, "scaleout: FAIL: probe made no writes")
		os.Exit(1)
	}
}

// measureScaleoutPoint routes o.sessions*K emulated browsers over the first
// K caches for one workload window, with the RYW probe running alongside.
func measureScaleoutPoint(backendAddr string, cacheAddrs []string, o scaleoutOpts, w tpcw.Workload, res *scaleoutResult) (*scaleoutPoint, error) {
	rt, err := router.New(router.Config{
		Backend:   backendAddr,
		Caches:    cacheAddrs,
		Watermark: 250 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	k := len(cacheAddrs)
	nSessions := o.sessions * k

	// One id pool for the whole fleet: every session's App allocates order,
	// cart and customer ids from the master's counters, exactly like multiple
	// web servers sharing one backend.
	master := tpcw.NewApp(rt.Session().Conn(), o.cfg)

	probeID := int64(o.cfg.Items + 1000) // outside randItem's range: no workload writes race it
	deadline := time.Now().Add(o.benchDur)

	var (
		wg           sync.WaitGroup
		interactions atomic.Int64
		errorsN      atomic.Int64
		firstErr     atomic.Value
	)
	for g := 0; g < nSessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := rt.Session()
			app := tpcw.NewApp(s.Conn(), o.cfg)
			app.ShareIDsWith(master)
			browser := app.NewSession(int64(k)*1000 + int64(g))
			rng := rand.New(rand.NewSource(int64(g) + 7919))
			for time.Now().Before(deadline) {
				in := tpcw.Pick(w, rng)
				if _, err := app.Run(browser, in); err != nil {
					errorsN.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				interactions.Add(1)
			}
		}(g)
	}

	// The probe session: write a strictly increasing value, read it back
	// through the router, and demand the read covers the write — the
	// experiment's acceptance criterion, enforced with zero tolerance.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := rt.Session()
		// Idempotent seed; a duplicate-key error on re-run means the row is
		// already there, which is all the probe needs.
		_, _ = s.Exec(fmt.Sprintf(
			`INSERT INTO item (i_id, i_title, i_a_id, i_pub_date, i_publisher, i_subject, i_desc, i_related1, i_stock, i_cost, i_srp)
			 VALUES (%d, 'RYW PROBE', 1, '2003-06-09', 'probe', 'ARTS', 'probe', 1, 0, 1.0, 1.0)`, probeID), nil)
		for v := int64(1); time.Now().Before(deadline); v++ {
			if _, err := s.Exec(fmt.Sprintf("UPDATE item SET i_stock = %d WHERE i_id = %d", v, probeID), nil); err != nil {
				errorsN.Add(1)
				firstErr.CompareAndSwap(nil, err)
				return
			}
			atomic.AddInt64(&res.ProbeWrites, 1)
			got, err := s.Exec(fmt.Sprintf("SELECT i_stock FROM item WHERE i_id = %d", probeID), nil)
			if err != nil {
				errorsN.Add(1)
				firstErr.CompareAndSwap(nil, err)
				return
			}
			if len(got.Rows) != 1 || got.Rows[0][0].Int() < v {
				atomic.AddInt64(&res.ProbeStale, 1)
			}
		}
	}()
	wg.Wait()

	if e := firstErr.Load(); e != nil {
		fmt.Fprintf(os.Stderr, "scaleout: %d error(s), first: %v\n", errorsN.Load(), e)
	}
	n := interactions.Load()
	return &scaleoutPoint{
		Caches:       k,
		Workload:     w.String(),
		Sessions:     nSessions,
		Interactions: n,
		Errors:       errorsN.Load(),
		WIPS:         float64(n) / o.benchDur.Seconds(),
	}, nil
}

// cacheChild is one spawned mtbench -scaleout-child process.
type cacheChild struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// kill shuts a child down: closing stdin asks it to exit, Kill makes sure.
func (c *cacheChild) kill() {
	if c.stdin != nil {
		c.stdin.Close()
	}
	if c.cmd.Process != nil {
		done := make(chan struct{})
		go func() { c.cmd.Wait(); close(done) }() //nolint:errcheck
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			c.cmd.Process.Kill() //nolint:errcheck
			<-done
		}
	}
}

// spawnCaches forks n copies of this binary in -scaleout-child mode and waits
// for each to report its wire address on stdout.
func spawnCaches(backendAddr string, n int) ([]*cacheChild, []string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var children []*cacheChild
	var addrs []string
	for i := 0; i < n; i++ {
		cmd := exec.Command(self,
			"-scaleout-child", fmt.Sprintf("cache%d", i+1),
			"-scaleout-backend", backendAddr)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return children, nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return children, nil, err
		}
		if err := cmd.Start(); err != nil {
			return children, nil, err
		}
		child := &cacheChild{cmd: cmd, stdin: stdin}
		children = append(children, child)
		addr, err := awaitReady(stdout)
		if err != nil {
			return children, nil, fmt.Errorf("cache%d: %w", i+1, err)
		}
		addrs = append(addrs, addr)
		fmt.Fprintf(os.Stderr, "cache%d serving on %s\n", i+1, addr)
	}
	return children, addrs, nil
}

// awaitReady scans a child's stdout for the SCALEOUT_READY handshake.
func awaitReady(r io.Reader) (string, error) {
	type ready struct {
		addr string
		err  error
	}
	ch := make(chan ready, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "SCALEOUT_READY "); ok {
				ch <- ready{addr: strings.TrimSpace(addr)}
				// Keep draining so the child never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
		}
		ch <- ready{err: fmt.Errorf("exited before SCALEOUT_READY (%v)", sc.Err())}
	}()
	select {
	case r := <-ch:
		return r.addr, r.err
	case <-time.After(60 * time.Second):
		return "", fmt.Errorf("timed out waiting for SCALEOUT_READY")
	}
}

// runScaleoutChild is the hidden child mode: one real cache server process —
// resilient backend link, the paper's four cached views with their indexes,
// the 24 cacheable procedures, a pull agent, and a wire listener for the
// router. It announces readiness on stdout and exits when stdin closes.
func runScaleoutChild(name, backendAddr string, pull time.Duration) {
	client, err := wire.DialResilient(backendAddr, resilience.DefaultPolicy(), nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
	defer client.Close()
	cache, err := wire.NewRemoteCache(name, client, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
	for _, ddl := range tpcw.CachedViewDDL {
		if err := cache.CreateCachedView(ddl); err != nil {
			fmt.Fprintf(os.Stderr, "%s: cached view: %v\n", name, err)
			os.Exit(1)
		}
	}
	for _, ddl := range tpcw.CachedViewIndexDDL {
		if _, err := cache.DB.Exec(ddl, nil); err != nil {
			fmt.Fprintf(os.Stderr, "%s: index: %v\n", name, err)
			os.Exit(1)
		}
	}
	skip := map[string]bool{}
	for _, p := range tpcw.UpdateDominatedProcs {
		skip[strings.ToLower(p)] = true
	}
	for _, text := range tpcw.ProcedureDDL {
		if skip[strings.ToLower(procNameOf(text))] {
			continue
		}
		if err := cache.CopyProcedureText(text); err != nil {
			fmt.Fprintf(os.Stderr, "%s: procedure: %v\n", name, err)
			os.Exit(1)
		}
	}
	cache.StartPulling(pull)
	defer cache.StopPulling()
	srv, err := wire.ServeCache(cache, "127.0.0.1:0", wire.ServerOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("SCALEOUT_READY %s\n", srv.Addr())

	// Serve until the parent closes our stdin (or kills us).
	io.Copy(io.Discard, os.Stdin) //nolint:errcheck
}

// procNameOf extracts the procedure name from a CREATE PROCEDURE statement.
func procNameOf(ddl string) string {
	fields := strings.Fields(ddl)
	for i := 0; i+1 < len(fields); i++ {
		if strings.EqualFold(fields[i], "PROCEDURE") {
			return fields[i+1]
		}
	}
	return ""
}

func writeScaleoutJSON(path string, res *scaleoutResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
