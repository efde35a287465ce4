package mtcache

// Ablation benches for the design choices in DESIGN.md §4 (dynamic plans,
// ChoosePlan pull-up, mixed-result plans) and a few engine
// micro-benchmarks. Run:
//
//	go test -run '^$' -bench . -benchmem
//
// The paper's §6 tables are not here: the fleet numbers come from bench/
// (BENCHMARK.json), the capacity-simulation tables from
// `go test ./internal/sim -run TestExperiment -v`.

import (
	"fmt"
	"testing"

	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/tpcw"
)

// ---------------------------------------------------------------------
// Ablation benches (DESIGN.md §4)
// ---------------------------------------------------------------------

// dynBench builds the paper's Cust1000 scenario: a backend customer table
// plus a cache holding the cached view.
func dynBench(b *testing.B, options *Options) (*Backend, *Cache) {
	b.Helper()
	backend := NewBackend("backend")
	err := backend.ExecScript(`
		CREATE TABLE customer (
			cid INT PRIMARY KEY,
			cname VARCHAR(40) NOT NULL,
			caddress VARCHAR(60)
		);`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 20000; i += 500 {
		stmt := "INSERT INTO customer (cid, cname, caddress) VALUES "
		for j := i; j < i+500; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'cust%d', 'addr%d')", j, j, j)
		}
		if _, err := backend.Exec(stmt, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := backend.DB.Analyze(); err != nil {
		b.Fatal(err)
	}
	cache, err := NewCache("cache1", backend, options)
	if err != nil {
		b.Fatal(err)
	}
	if err := cache.CreateCachedView(`CREATE CACHED VIEW Cust1000 AS
		SELECT cid, cname, caddress FROM customer WHERE cid <= 1000`); err != nil {
		b.Fatal(err)
	}
	return backend, cache
}

// BenchmarkDynamicPlanVsStatic compares the three strategies for
// parameterized queries (§5.1): one cached dynamic plan (the paper's
// contribution), reoptimizing on every call, and a static always-remote
// plan. The dynamic plan should approach local-plan speed for in-view
// parameters without any reoptimization.
func BenchmarkDynamicPlanVsStatic(b *testing.B) {
	query := "SELECT cid, cname, caddress FROM customer WHERE cid <= @cid"

	b.Run("dynamic-cached-plan", func(b *testing.B) {
		_, cache := dynBench(b, nil)
		params := Params{"cid": Int(500)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Exec(query, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reoptimize-every-call", func(b *testing.B) {
		_, cache := dynBench(b, nil)
		params := Params{"cid": Int(500)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.DB.InvalidatePlans()
			if _, err := cache.Exec(query, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("static-remote", func(b *testing.B) {
		opts := DefaultOptions()
		opts.EnableDynamicPlans = false // guarded view match unusable → remote plan
		_, cache := dynBench(b, &opts)
		params := Params{"cid": Int(500)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Exec(query, params); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChoosePlanPullup measures §5.1.2: with pull-up the guard-false
// branch ships the whole join to the backend as one query; without it the
// ChoosePlan freezes at the leaf.
func BenchmarkChoosePlanPullup(b *testing.B) {
	setup := func(b *testing.B, pullUp bool) *Cache {
		opts := DefaultOptions()
		opts.PullUpChoosePlan = pullUp
		backend, _ := dynBench(b, &opts)
		if err := backend.ExecScript(`CREATE TABLE orders (okey INT PRIMARY KEY, ckey INT, total FLOAT);
			CREATE INDEX ix_orders_ckey ON orders (ckey);`); err != nil {
			b.Fatal(err)
		}
		for i := 1; i <= 4000; i += 500 {
			stmt := "INSERT INTO orders (okey, ckey, total) VALUES "
			for j := i; j < i+500; j++ {
				if j > i {
					stmt += ", "
				}
				stmt += fmt.Sprintf("(%d, %d, %d.5)", j, j%20000+1, j)
			}
			backend.Exec(stmt, nil)
		}
		backend.DB.Analyze()
		// Refresh the cache's shadow of the new table.
		cache2, err := NewCache("cache2", backend, &opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := cache2.CreateCachedView(`CREATE CACHED VIEW Cust1000 AS
			SELECT cid, cname, caddress FROM customer WHERE cid <= 1000`); err != nil {
			b.Fatal(err)
		}
		return cache2
	}
	query := `SELECT c.cname, o.total FROM customer c, orders o
		WHERE c.cid <= @key AND c.cid = o.ckey AND o.okey <= 200`
	for _, mode := range []struct {
		name   string
		pullUp bool
	}{{"pullup-on", true}, {"pullup-off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cache := setup(b, mode.pullUp)
			params := Params{"key": Int(15000)} // guard false → remote branch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cache.Exec(query, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCostBasedVsAlwaysLocal is the DBCache-comparison ablation: a
// point query the backend can index-seek but the cache can only scan. The
// cost-based optimizer goes remote; the always-use-cache heuristic scans
// the local view.
func BenchmarkCostBasedVsAlwaysLocal(b *testing.B) {
	setup := func(b *testing.B, always bool) *Cache {
		opts := DefaultOptions()
		opts.AlwaysUseCache = always
		_, cache := dynBench(b, &opts)
		// Full-copy view without useful indexes for this predicate.
		if err := cache.CreateCachedView(`CREATE CACHED VIEW AllCust AS
			SELECT cname, caddress FROM customer`); err != nil {
			b.Fatal(err)
		}
		return cache
	}
	query := "SELECT cname FROM customer WHERE cid = 19999"
	for _, mode := range []struct {
		name   string
		always bool
	}{{"cost-based", false}, {"always-local", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cache := setup(b, mode.always)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cache.Exec(query, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemoteCostFactor sweeps the remote-cost multiplier on the
// paper's Cartesian-product example (§5: "it is cheaper to ship the
// individual tables to the local server and evaluate the join locally than
// performing the join remotely"). With the factor at 1.0 the optimizer may
// keep the expensive theta-join remote; as the factor grows — modeling a
// loaded backend — it switches to transferring both inputs and joining on
// the cache. remote_fragments reports how many DataTransfers the chosen
// plan contains (1 = join pushed remote, 2 = both tables shipped).
func BenchmarkRemoteCostFactor(b *testing.B) {
	query := `SELECT COUNT(*) FROM customer c, orders o
		WHERE c.cid <= 400 AND o.okey <= 400 AND c.cid < o.ckey`
	for _, factor := range []float64{1.0, 1.4, 2.0, 4.0} {
		b.Run(fmt.Sprintf("factor=%.1f", factor), func(b *testing.B) {
			opts := DefaultOptions()
			opts.RemoteCostFactor = factor
			backend, _ := dynBench(b, &opts)
			if err := backend.ExecScript(`CREATE TABLE orders (okey INT PRIMARY KEY, ckey INT, total FLOAT);`); err != nil {
				b.Fatal(err)
			}
			for i := 1; i <= 2000; i += 500 {
				stmt := "INSERT INTO orders (okey, ckey, total) VALUES "
				for j := i; j < i+500; j++ {
					if j > i {
						stmt += ", "
					}
					stmt += fmt.Sprintf("(%d, %d, %d.5)", j, j%20000+1, j)
				}
				backend.Exec(stmt, nil)
			}
			backend.DB.Analyze()
			cache, err := NewCache("cache-sweep", backend, &opts)
			if err != nil {
				b.Fatal(err)
			}
			stmt := sql.MustParseSelect(query)
			env := optEnvForCache(cache)
			var fragments float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := opt.Optimize(stmt, env)
				if err != nil {
					b.Fatal(err)
				}
				fragments = float64(len(p.RemoteSQL))
			}
			b.ReportMetric(fragments, "remote_fragments")
		})
	}
}

func optEnvForCache(c *Cache) *opt.Env {
	o := c.DB.Options()
	return &opt.Env{Cat: c.DB.Catalog(), IsCache: true, Opts: o}
}

// BenchmarkShadowedStatsOptimization measures the paper's argument for
// local optimization (§5): optimizing with shadowed statistics takes
// microseconds, whereas remote optimization would pay a round trip per
// subexpression considered.
func BenchmarkShadowedStatsOptimization(b *testing.B) {
	_, cache := dynBench(b, nil)
	stmt := sql.MustParseSelect(`SELECT c.cname FROM customer c WHERE c.cid <= @cid`)
	env := optEnvForCache(cache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(stmt, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMixedResultPlans measures §5.1.1 on a backend materialized view:
// with mixed results, an out-of-view parameter reads the view plus only the
// remainder of the base table.
func BenchmarkMixedResultPlans(b *testing.B) {
	setup := func(b *testing.B, allowMixed bool) *Backend {
		backend := NewBackend("backend")
		if err := backend.ExecScript(`CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(40) NOT NULL);`); err != nil {
			b.Fatal(err)
		}
		for i := 1; i <= 10000; i += 500 {
			stmt := "INSERT INTO customer (cid, cname) VALUES "
			for j := i; j < i+500; j++ {
				if j > i {
					stmt += ", "
				}
				stmt += fmt.Sprintf("(%d, 'c%d')", j, j)
			}
			backend.Exec(stmt, nil)
		}
		backend.DB.Analyze()
		opts := DefaultOptions()
		opts.AllowMixedResults = allowMixed
		backend.DB.SetOptions(opts)
		if _, err := backend.Exec(`CREATE MATERIALIZED VIEW mv1000 AS
			SELECT cid, cname FROM customer WHERE cid <= 1000`, nil); err != nil {
			b.Fatal(err)
		}
		return backend
	}
	query := "SELECT cid, cname FROM customer WHERE cid <= @cid"
	for _, mode := range []struct {
		name  string
		mixed bool
	}{{"mixed-allowed", true}, {"mixed-disallowed", false}} {
		b.Run(mode.name, func(b *testing.B) {
			backend := setup(b, mode.mixed)
			params := Params{"cid": Int(1200)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := backend.Exec(query, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Engine micro-benchmarks
// ---------------------------------------------------------------------

func BenchmarkPointQueryBackend(b *testing.B) {
	backend, _ := dynBench(b, nil)
	params := Params{"cid": Int(777)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Exec("SELECT cname FROM customer WHERE cid = @cid", params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalViewHitCache(b *testing.B) {
	_, cache := dynBench(b, nil)
	params := Params{"cid": Int(500)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Exec("SELECT cname FROM customer WHERE cid = @cid", params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestSellerQuery(b *testing.B) {
	cfg := tpcw.Config{Items: 300, Customers: 600, OrdersPerCustomer: 0.9, Seed: 20030609}
	backend := NewBackend("backend")
	if err := tpcw.Load(backend, cfg); err != nil {
		b.Fatal(err)
	}
	if err := backend.DB.Analyze(); err != nil {
		b.Fatal(err)
	}
	cache, err := NewCache("cache1", backend, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := tpcw.SetupCache(cache); err != nil {
		b.Fatal(err)
	}
	// Result cache off: time the join + aggregation, not a repeated lookup.
	cache.DB.SetIMCacheEnabled(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.DB.Exec("EXEC getBestSellers 'ARTS'", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplicationApplyThroughput(b *testing.B) {
	backend := NewBackend("replbench")
	if err := backend.ExecScript(`CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(20));`); err != nil {
		b.Fatal(err)
	}
	cache, err := NewCache("c", backend, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := cache.CreateCachedView("CREATE CACHED VIEW vt AS SELECT a, b FROM t"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Exec(fmt.Sprintf("INSERT INTO t (a, b) VALUES (%d, 'x')", i), nil); err != nil {
			b.Fatal(err)
		}
		if i%100 == 99 {
			if _, err := cache.Pull(); err != nil {
				b.Fatal(err)
			}
		}
	}
	cache.Pull() //nolint:errcheck
}
