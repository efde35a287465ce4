// Freshness demonstrates the asynchronous nature of MTCache: a cached view
// is transactionally consistent but may trail the backend (paper §3), with
// the staleness window set by the replication agents' poll interval. It
// also shows the log-reader on/off switch used in experiment §6.2.2 and the
// commit-to-commit latency measurement of §6.2.3.
package main

import (
	"fmt"
	"log"
	"time"

	"mtcache"
)

func main() {
	backend := mtcache.NewBackend("prod")
	must(backend.ExecScript(`
		CREATE TABLE quote (
			qid INT PRIMARY KEY,
			symbol VARCHAR(8) NOT NULL,
			price FLOAT
		);`))
	for i := 1; i <= 100; i++ {
		_, err := backend.Exec(fmt.Sprintf(
			"INSERT INTO quote (qid, symbol, price) VALUES (%d, 'SYM%d', %d.0)", i, i, 100+i), nil)
		must(err)
	}
	must(backend.DB.Analyze())

	cache, err := mtcache.NewCache("edge1", backend, nil)
	must(err)
	must(cache.CreateCachedView("CREATE CACHED VIEW quotes AS SELECT qid, symbol, price FROM quote"))
	conn := mtcache.ConnectCache(cache)

	read := func() float64 {
		res, err := conn.Exec("SELECT price FROM quote WHERE qid = 1", nil)
		must(err)
		return res.Rows[0][0].Float()
	}

	// --- staleness window ---------------------------------------------
	const poll = 100 * time.Millisecond
	backend.StartReplication(poll, poll)
	fmt.Printf("replication agents polling every %v\n\n", poll)

	fmt.Printf("price before update:            %.2f\n", read())
	_, err = backend.Exec("UPDATE quote SET price = 999.99 WHERE qid = 1", nil)
	must(err)
	fmt.Printf("immediately after update:       %.2f   <- stale but consistent\n", read())

	start := time.Now()
	for read() != 999.99 {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("after %8v:               %.2f   <- converged\n\n", time.Since(start).Round(time.Millisecond), read())

	// --- commit-to-commit latency (experiment 3's measurement) ---------
	for i := 0; i < 20; i++ {
		_, err := backend.Exec(fmt.Sprintf("UPDATE quote SET price = %d.5 WHERE qid = %d", 200+i, i+2), nil)
		must(err)
		time.Sleep(poll / 4)
	}
	time.Sleep(3 * poll)
	backend.StopReplication()
	lat := cache.Stats.Latency
	fmt.Printf("propagation latency over %d txns: mean %s, p90 %s\n",
		lat.Count(),
		time.Duration(lat.Mean()*float64(time.Second)).Round(time.Millisecond),
		time.Duration(lat.Quantile(0.9)*float64(time.Second)).Round(time.Millisecond))

	// --- the log reader switch (experiment 2) --------------------------
	backend.Repl.SetLogReader(false)
	_, err = backend.Exec("UPDATE quote SET price = 1.23 WHERE qid = 1", nil)
	must(err)
	must(backend.SyncReplication())
	fmt.Printf("\nlog reader OFF: cache still sees %.2f (change parked in the log)\n", read())
	backend.Repl.SetLogReader(true)
	must(backend.SyncReplication())
	fmt.Printf("log reader ON:  cache now sees  %.2f (nothing was lost)\n", read())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
