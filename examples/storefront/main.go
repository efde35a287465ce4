// Storefront runs the paper's evaluation scenario in miniature: a TPC-W
// bookstore backend, an MTCache server configured exactly as §6.1 describes
// (cached projections of item, author, orders, order_line; 5 update-heavy
// procedures left on the backend), and a stream of web interactions served
// through the cache — with live counters showing how much of the workload
// the mid-tier absorbs.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"mtcache"
	"mtcache/internal/core"
	"mtcache/internal/tpcw"
)

func main() {
	cfg := tpcw.Config{Items: 500, Customers: 1000, OrdersPerCustomer: 0.9, Seed: 20030609}

	fmt.Println("loading TPC-W database...")
	backend := mtcache.NewBackend("bookstore")
	must(tpcw.Load(backend, cfg))
	must(backend.DB.Analyze())
	fmt.Printf("  items=%d customers=%d orders=%d order_lines=%d\n",
		backend.DB.TableRowCount("item"), backend.DB.TableRowCount("customer"),
		backend.DB.TableRowCount("orders"), backend.DB.TableRowCount("order_line"))

	fmt.Println("provisioning MTCache server (four cached views, 21 procedures)...")
	cache, err := mtcache.NewCache("webcache1", backend, nil)
	must(err)
	must(tpcw.SetupCache(cache))

	// Replication agents in the background, as in production.
	backend.Repl.Start(50 * time.Millisecond)
	defer backend.Repl.Stop()
	cache.StartPulling(50 * time.Millisecond)
	defer cache.StopPulling()

	app := tpcw.NewApp(core.ConnectCache(cache), cfg)
	r := rand.New(rand.NewSource(7))

	const interactions = 2000
	perClass := map[string]int{}
	fmt.Printf("running %d Shopping-mix interactions through the cache...\n", interactions)
	session := app.NewSession(99)
	start := time.Now()
	for i := 0; i < interactions; i++ {
		in := tpcw.Pick(tpcw.Shopping, r)
		if _, err := app.Run(session, in); err != nil {
			log.Fatalf("%s: %v", in, err)
		}
		if in.IsBrowse() {
			perClass["browse"]++
		} else {
			perClass["order"]++
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("  done in %v (%.0f interactions/s single-threaded)\n",
		elapsed.Round(time.Millisecond), float64(interactions)/elapsed.Seconds())
	fmt.Printf("  mix realized: %d browse / %d order\n", perClass["browse"], perClass["order"])

	// Where did the work go? Probe the headline queries.
	probes := []struct {
		label string
		stmt  string
	}{
		{"bestseller query", "EXEC getBestSellers 'ARTS'"},
		{"subject search", "EXEC doSubjectSearch 'HISTORY'"},
		{"title search", "EXEC doTitleSearch '%THE%'"},
		{"item detail", "EXEC getBook 42"},
		{"customer lookup (not cached)", "EXEC getCustomer 'user7'"},
	}
	fmt.Println("\nwhere individual page queries execute:")
	for _, p := range probes {
		res, err := cache.DB.Exec(p.stmt, nil)
		must(err)
		where := "LOCAL on the cache"
		if res.Counters.RemoteQueries > 0 {
			where = "REMOTE on the backend"
		}
		fmt.Printf("  %-30s -> %-22s (%d rows)\n", p.label, where, len(res.Rows))
	}

	// Replication health.
	stats := cache.Stats
	fmt.Printf("\nreplication: %d txns applied to the cache, mean latency %s\n",
		stats.TxnsApplied.Value(),
		(time.Duration(stats.Latency.Mean() * float64(time.Second))).Round(time.Millisecond))
	fmt.Printf("orders on backend grew to %d (buy-confirms forwarded transparently)\n",
		backend.DB.TableRowCount("orders"))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
