// Command tpcwgen generates a TPC-W database and prints its table
// populations and statistics summaries — useful for checking scale-factor
// ratios before a benchmark run.
//
//	tpcwgen -items 1000 -customers 2880
package main

import (
	"flag"
	"fmt"
	"log"

	"mtcache"
	"mtcache/internal/tpcw"
)

func main() {
	var (
		items     = flag.Int("items", 500, "item count")
		customers = flag.Int("customers", 1000, "customer count")
		seed      = flag.Int64("seed", 20030609, "generator seed")
	)
	flag.Parse()

	cfg := tpcw.Config{Items: *items, Customers: *customers, OrdersPerCustomer: 0.9, Seed: *seed}
	backend := mtcache.NewBackend("gen")
	if err := tpcw.Load(backend, cfg); err != nil {
		log.Fatal(err)
	}
	if err := backend.DB.Analyze(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-20s %10s %10s\n", "table", "rows", "distinct PK")
	for _, t := range backend.DB.Catalog().Tables() {
		if t.IsView {
			continue
		}
		rows := backend.DB.TableRowCount(t.Name)
		pk := "-"
		if len(t.PrimaryKey) == 1 && t.Stats.Load() != nil {
			if cs := t.Stats.Load().Col(t.Columns[t.PrimaryKey[0]].Name); cs != nil {
				pk = fmt.Sprint(cs.Distinct)
			}
		}
		fmt.Printf("%-20s %10d %10s\n", t.Name, rows, pk)
	}

	fmt.Println("\nspot checks:")
	for _, q := range []string{
		"SELECT COUNT(DISTINCT i_subject) FROM item",
		"SELECT MIN(i_cost), MAX(i_cost) FROM item",
		"SELECT COUNT(*) FROM order_line",
		"SELECT AVG(o_total) FROM orders",
	} {
		res, err := backend.Exec(q, nil)
		if err != nil {
			log.Fatal(err)
		}
		var vals []string
		for _, v := range res.Rows[0] {
			vals = append(vals, v.Display())
		}
		fmt.Printf("  %-45s -> %v\n", q, vals)
	}
}
