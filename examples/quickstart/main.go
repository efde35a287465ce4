// Quickstart: the smallest end-to-end MTCache setup — a backend, one cache
// with a cached view, transparent query routing and update forwarding.
package main

import (
	"fmt"
	"log"

	"mtcache"
)

func main() {
	// 1. A backend database server with some data.
	backend := mtcache.NewBackend("prod")
	must(backend.ExecScript(`
		CREATE TABLE customer (
			cid INT PRIMARY KEY,
			cname VARCHAR(40) NOT NULL,
			caddress VARCHAR(60)
		);
	`))
	for i := 1; i <= 5000; i++ {
		_, err := backend.Exec(
			fmt.Sprintf("INSERT INTO customer (cid, cname, caddress) VALUES (%d, 'customer %d', 'street %d')", i, i, i), nil)
		must(err)
	}
	must(backend.DB.Analyze())

	// 2. A mid-tier cache: shadow schema + statistics, no data.
	cache, err := mtcache.NewCache("edge1", backend, nil)
	must(err)

	// 3. Declare what to cache. The replication subscription and the
	//    initial population happen automatically.
	must(cache.CreateCachedView(`CREATE CACHED VIEW Cust1000 AS
		SELECT cid, cname, caddress FROM customer WHERE cid <= 1000`))

	// 4. The application connects to the cache exactly as it would connect
	//    to the backend — this is the ODBC redirection of the paper.
	conn := mtcache.ConnectCache(cache)

	// A query inside the cached view: answered locally.
	res, err := conn.Exec("SELECT cname FROM customer WHERE cid = 42", nil)
	must(err)
	fmt.Printf("cid=42   -> %-14s (remote queries: %d)\n",
		res.Rows[0][0].Display(), res.Counters.RemoteQueries)

	// A query outside the view: transparently computed on the backend.
	res, err = conn.Exec("SELECT cname FROM customer WHERE cid = 4242", nil)
	must(err)
	fmt.Printf("cid=4242 -> %-14s (remote queries: %d)\n",
		res.Rows[0][0].Display(), res.Counters.RemoteQueries)

	// An update through the cache: forwarded to the backend, then flows
	// back into the cached view via replication.
	_, err = conn.Exec("UPDATE customer SET cname = 'renamed' WHERE cid = 42", nil)
	must(err)
	_, err = cache.Pull()
	must(err)
	res, err = conn.Exec("SELECT cname FROM customer WHERE cid = 42", nil)
	must(err)
	fmt.Printf("after update + replication: %s (remote queries: %d)\n",
		res.Rows[0][0].Display(), res.Counters.RemoteQueries)

	// The optimizer's view of a query: EXPLAIN shows DataTransfer
	// boundaries and view usage.
	plan, err := mtcache.ExplainCache(cache, "SELECT cname FROM customer WHERE cid <= 500")
	must(err)
	fmt.Printf("\nplan for an in-view range query:\n%s", plan)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
