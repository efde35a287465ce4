// Command backend-server runs a backend database server on TCP, loaded with
// the TPC-W database, for use with mtcache-server (the paper's multi-machine
// deployment, §3 figure 1).
//
//	backend-server -addr 127.0.0.1:7000 -items 1000 -customers 2880
//
// With -data-dir the backend is durable: commits and DDL are journaled to a
// segmented WAL by group commit (a commit returns once an fsync covers it,
// and a cache is sent only what an fsync covers), the heap and the catalog
// are checkpointed periodically, and a restart over the same directory
// recovers the committed state, schema included, from the latest checkpoint
// plus the log tail. TPC-W is loaded only into a data directory
// that holds nothing yet, so a restart never regenerates the dataset, and the
// load and its first checkpoint are one step to recovery (boot); -empty skips
// it.
//
// With -shell an interactive SQL shell runs on stdin (same commands as
// mtcache-server: \top, \slow, \events, \explain, \trace, \checkpoint,
// \metrics, and the sys.* virtual tables via plain SELECTs). The default
// stays headless so scripted deployments are unchanged. SIGINT shuts either
// down cleanly, with a final checkpoint on a durable server.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"mtcache"
	"mtcache/internal/obs"
	"mtcache/internal/shell"
	"mtcache/internal/tpcw"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7000", "listen address")
		httpAddr  = flag.String("http", "", "observability HTTP address (/metrics, /debug/trace/last); empty disables")
		items     = flag.Int("items", 500, "TPC-W item count")
		customers = flag.Int("customers", 1000, "TPC-W customer count")
		empty     = flag.Bool("empty", false, "start with no TPC-W data (a -data-dir server keeps what it recovers)")

		dataDir   = flag.String("data-dir", "", "durable data directory (WAL + checkpoints); empty = in-memory")
		segMB     = flag.Int("segment-mb", 8, "WAL segment size in MiB")
		ckptEvery = flag.Int("checkpoint-every", 10000, "automatic checkpoint after this many commits (0 disables)")
		ckptTick  = flag.Duration("checkpoint-interval", time.Minute, "periodic checkpoint cadence (0 disables)")

		runShell  = flag.Bool("shell", false, "run an interactive SQL shell on stdin (default stays headless)")
		slowQuery = flag.Duration("slow-query", 100*time.Millisecond, "capture EXPLAIN ANALYZE for shapes slower than this (sys.query_plans, \\slow)")
	)
	flag.Parse()

	var durable *mtcache.DurabilityOptions
	if *dataDir != "" {
		durable = &mtcache.DurabilityOptions{
			Dir:             *dataDir,
			SegmentBytes:    int64(*segMB) << 20,
			CheckpointEvery: *ckptEvery,
		}
	}
	backend, err := boot(bootOptions{durable: durable, empty: *empty, load: func(b *mtcache.Backend) error {
		return loadTPCW(b, *items, *customers)
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer backend.DB.CloseStore()

	backend.DB.SetSlowThreshold(*slowQuery)

	// TCP caches pull, and every pull truncates the log; the timer truncates
	// it when no cache is pulling, and expires a cache whose oldest
	// unacknowledged commit is older than the retention period; that cache
	// re-attaches on its next pull.
	// Subscriptions live in memory: after a restart every cache re-attaches.
	backend.Repl.Start(100 * time.Millisecond)
	defer backend.Repl.Stop()

	srv, err := mtcache.ServeBackend(backend, *addr)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("backend serving on %s\n", srv.Addr())

	if *httpAddr != "" {
		replStatus := obs.Status{Name: "repl", Fn: func() any { return backend.Repl.Health(time.Now()) }}
		queryStore := obs.Status{Name: "querystore", Fn: func() any { return backend.DB.QueryStore() }}
		bound, closeHTTP, err := obs.Serve(*httpAddr, nil, backend.DB, replStatus, queryStore)
		if err != nil {
			log.Fatal(err)
		}
		defer closeHTTP() //nolint:errcheck
		fmt.Printf("observability on http://%s/metrics\n", bound)
	}

	stopCkpt := make(chan struct{})
	if *dataDir != "" && *ckptTick > 0 {
		go func() {
			t := time.NewTicker(*ckptTick)
			defer t.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-t.C:
					if _, err := backend.DB.Checkpoint(); err != nil {
						log.Printf("checkpoint: %v", err)
					}
				}
			}
		}()
	}

	// SIGINT is a clean shutdown, in the shell as headless.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	if *runShell {
		cfg := shell.Config{
			Name:    "backend",
			Exec:    func(sqlText string) (*mtcache.Result, error) { return backend.DB.Exec(sqlText, nil) },
			Explain: backend.DB.Explain,
			Trace:   backend.DB.LastTrace,
			In:      os.Stdin,
			Out:     os.Stdout,
		}
		if *dataDir != "" {
			cfg.Checkpoint = func() error {
				_, err := backend.DB.Checkpoint()
				return err
			}
		}
		quit := make(chan struct{})
		go func() { shell.Run(cfg); close(quit) }()
		select {
		case <-quit:
		case <-sig:
		}
	} else {
		<-sig
	}
	close(stopCkpt)
	if *dataDir != "" {
		// A final checkpoint makes the next boot's replay trivial.
		if _, err := backend.DB.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
	}
	fmt.Println("\nshutting down")
}

func loadTPCW(backend *mtcache.Backend, items, customers int) error {
	cfg := tpcw.Config{Items: items, Customers: customers, OrdersPerCustomer: 0.9, Seed: 20030609}
	log.Printf("loading TPC-W (%d items, %d customers)...", cfg.Items, cfg.Customers)
	if err := tpcw.Load(backend, cfg); err != nil {
		return err
	}
	return backend.DB.Analyze()
}
