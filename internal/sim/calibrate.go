package sim

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/tpcw"
)

// timedLink wraps the backend link and accumulates the time spent inside
// backend calls, so calibration can split an interaction's cost into
// "web/cache server work" and "backend work".
type timedLink struct {
	inner exec.RemoteClient
	ns    int64
}

func (t *timedLink) Query(sqlText string, params exec.Params) (*exec.ResultSet, error) {
	start := time.Now()
	defer func() { atomic.AddInt64(&t.ns, int64(time.Since(start))) }()
	return t.inner.Query(sqlText, params)
}

func (t *timedLink) Exec(sqlText string, params exec.Params) (int64, error) {
	start := time.Now()
	defer func() { atomic.AddInt64(&t.ns, int64(time.Since(start))) }()
	return t.inner.Exec(sqlText, params)
}

func (t *timedLink) take() time.Duration {
	return time.Duration(atomic.SwapInt64(&t.ns, 0))
}

// PageGenCost models the web server's page-generation work per interaction
// (the ISAPI/HTML layer the paper ran on IIS). Our Go application layer
// renders nothing, so this constant stands in for it; it is deliberately
// small relative to query costs so the backend remains the no-cache
// bottleneck, as in the paper.
const PageGenCost = 0.0003

// CalibrationResult carries both cost models plus the database handles so
// experiments can reuse the loaded system.
type CalibrationResult struct {
	NoCache Costs // all database work on the backend
	Cached  Costs // paper cache configuration (views + procedures)

	// ScaleFactor is the hardware-normalization multiplier applied to every
	// measured cost: today's engine is orders of magnitude faster than the
	// paper's 500 MHz Pentiums, so measured demands are scaled until the
	// no-cache Ordering mix consumes TargetOrderingDemand per interaction on
	// the backend — the demand implied by the paper's numbers (283 WIPS at
	// 90% of two CPUs ⇒ ≈6.4 ms). This preserves every measured *ratio*
	// while making simulated throughput directly comparable to the paper.
	ScaleFactor float64

	Backend *core.BackendServer
	Cache   *core.CacheServer
}

// TargetOrderingDemand is the per-interaction backend CPU demand of the
// Ordering mix on the paper's hardware: 2 CPUs × 0.9 / 283 WIPS.
const TargetOrderingDemand = 2.0 * 0.9 / 283.0

// Scaled returns a copy of the costs with every demand multiplied by f.
func (c Costs) Scaled(f float64) Costs {
	out := Costs{
		Web:          map[tpcw.Interaction]float64{},
		Backend:      map[tpcw.Interaction]float64{},
		Writes:       map[tpcw.Interaction]float64{},
		ReaderPerTxn: c.ReaderPerTxn * f,
		ApplyPerTxn:  c.ApplyPerTxn * f,
	}
	for in, v := range c.Web {
		out.Web[in] = v * f
	}
	for in, v := range c.Backend {
		out.Backend[in] = v * f
	}
	for in, v := range c.Writes {
		out.Writes[in] = v // a count, not a demand
	}
	return out
}

// MeanDemand returns the mix-weighted mean backend demand per interaction.
func (c Costs) MeanDemand(w tpcw.Workload, backend bool) float64 {
	var d float64
	for in, pct := range tpcw.Mix(w) {
		if backend {
			d += pct / 100 * c.Backend[in]
		} else {
			d += pct / 100 * c.Web[in]
		}
	}
	return d
}

// Calibrate builds a real backend + cache pair with the TPC-W data and
// measures every interaction's cost in both configurations, plus the
// replication pipeline's per-transaction overheads.
func Calibrate(cfg tpcw.Config, reps int) (*CalibrationResult, error) {
	if reps <= 0 {
		reps = 12
	}
	backend := core.NewBackend("backend")
	if err := tpcw.Load(backend, cfg); err != nil {
		return nil, err
	}
	cache, err := core.NewCache("cache1", backend, nil)
	if err != nil {
		return nil, err
	}
	if err := tpcw.SetupCache(cache); err != nil {
		return nil, err
	}
	// The capacity simulation reproduces the paper's figures, which know
	// only DBA-declared cached views. The intermediate-result cache would
	// warp the measured per-interaction costs (repeated aggregates with
	// identical parameters become near-free lookups), so calibration runs
	// with it off on both servers.
	backend.DB.SetIMCacheEnabled(false)
	cache.DB.SetIMCacheEnabled(false)

	res := &CalibrationResult{Backend: backend, Cache: cache}

	// ---- no-cache configuration: the app talks straight to the backend.
	noCacheApp := tpcw.NewApp(core.ConnectBackend(backend), cfg)
	res.NoCache, err = measureApp(noCacheApp, nil, backend, cfg, reps)
	if err != nil {
		return nil, fmt.Errorf("sim: no-cache calibration: %w", err)
	}

	// ---- cached configuration: the app talks to the cache; a timing shim
	// splits backend time out of each interaction.
	shim := &timedLink{inner: engine.NewLink(backend.DB)}
	cache.DB.SetRemote(shim)
	cachedApp := tpcw.NewApp(core.ConnectCache(cache), cfg)
	cachedApp.ShareIDsWith(noCacheApp) // both apps create rows on one backend
	res.Cached, err = measureApp(cachedApp, shim, backend, cfg, reps)
	if err != nil {
		return nil, fmt.Errorf("sim: cached calibration: %w", err)
	}

	// ---- replication overheads, measured from the real pipeline.
	reader, apply, err := measureReplication(backend, cache, cachedApp, cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: replication calibration: %w", err)
	}
	res.Cached.ReaderPerTxn = reader
	res.Cached.ApplyPerTxn = apply
	res.NoCache.ReaderPerTxn = reader
	res.NoCache.ApplyPerTxn = apply

	// Hardware normalization (see ScaleFactor).
	measured := res.NoCache.MeanDemand(tpcw.Ordering, true)
	if measured > 0 {
		res.ScaleFactor = TargetOrderingDemand / measured
		res.NoCache = res.NoCache.Scaled(res.ScaleFactor)
		res.Cached = res.Cached.Scaled(res.ScaleFactor)
		// Page generation is already paper-scale; re-add it unscaled.
		for _, in := range tpcw.Interactions() {
			res.NoCache.Web[in] += PageGenCost * (1 - res.ScaleFactor)
			res.Cached.Web[in] += PageGenCost * (1 - res.ScaleFactor)
		}
	}
	return res, nil
}

// measureApp times every interaction type against a configured app.
func measureApp(app *tpcw.App, shim *timedLink, backend *core.BackendServer, cfg tpcw.Config, reps int) (Costs, error) {
	costs := Costs{
		Web:     map[tpcw.Interaction]float64{},
		Backend: map[tpcw.Interaction]float64{},
		Writes:  map[tpcw.Interaction]float64{},
	}
	session := app.NewSession(1)
	// Warm plan caches so calibration measures steady state.
	for _, in := range tpcw.Interactions() {
		if _, err := app.Run(session, in); err != nil {
			return costs, fmt.Errorf("%s warmup: %w", in, err)
		}
	}
	// Measurement is interleaved — one round runs every interaction once —
	// and summarized by the per-interaction median, so transient CPU
	// contention (e.g. parallel test packages) hits all interactions evenly
	// instead of skewing whichever was being measured at the time.
	wallSamples := map[tpcw.Interaction][]float64{}
	backendSamples := map[tpcw.Interaction][]float64{}
	var writes = map[tpcw.Interaction]int64{}
	for rep := 0; rep < reps; rep++ {
		for _, in := range tpcw.Interactions() {
			if shim != nil {
				shim.take()
			}
			walBefore := backend.DB.Store().WAL().End()
			start := time.Now()
			if _, err := app.Run(session, in); err != nil {
				return costs, fmt.Errorf("%s: %w", in, err)
			}
			wallSamples[in] = append(wallSamples[in], time.Since(start).Seconds())
			writes[in] += int64(backend.DB.Store().WAL().End() - walBefore)
			if shim != nil {
				backendSamples[in] = append(backendSamples[in], shim.take().Seconds())
			}
			// Keep the WAL from growing unboundedly during calibration.
			backend.DB.Store().WAL().Truncate(backend.DB.Store().WAL().End())
		}
	}
	for _, in := range tpcw.Interactions() {
		med := median(wallSamples[in])
		costs.Writes[in] = float64(writes[in]) / float64(reps)
		if shim == nil {
			// No-cache: all measured time is backend work; the web server
			// contributes page generation only.
			costs.Backend[in] = med
			costs.Web[in] = PageGenCost
		} else {
			bt := median(backendSamples[in])
			web := med - bt
			if web < 0 {
				web = 0
			}
			costs.Web[in] = web + PageGenCost
			costs.Backend[in] = bt
		}
	}
	return costs, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// measureReplication drives write transactions through the pipeline and
// reports (log-reader seconds per txn, apply seconds per txn per cache).
func measureReplication(backend *core.BackendServer, cache *core.CacheServer, app *tpcw.App, cfg tpcw.Config) (float64, float64, error) {
	readerTime, applyTime := backend.Repl.Stats.ReaderTime, cache.Stats.ApplyTime
	readerBefore := readerTime.Value()
	applyBefore := applyTime.Value()
	walStart := backend.DB.Store().WAL().End()

	s := app.NewSession(2)
	const writers = 60
	for i := 0; i < writers; i++ {
		if _, err := app.Run(s, tpcw.BuyConfirm); err != nil {
			return 0, 0, err
		}
		if i%10 == 9 {
			if err := backend.SyncReplication(); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := backend.SyncReplication(); err != nil {
		return 0, 0, err
	}
	commits := float64(backend.DB.Store().WAL().End() - walStart)
	if commits == 0 {
		return 0, 0, fmt.Errorf("no transactions replicated during calibration")
	}
	reader := float64(readerTime.Value()-readerBefore) / 1e9 / commits
	apply := float64(applyTime.Value()-applyBefore) / 1e9 / commits
	return reader, apply, nil
}
