package main

import (
	"fmt"
	"math/rand"

	"mtcache/internal/tpcw"
)

// workloadSpec is one of the four traffic mixes. N is the number of measured
// operations per client per round of a full run; rounds are sized in
// operations, not seconds, so that hit ratios and per-operation counts see
// the same inputs on every run of a seed.
type workloadSpec struct {
	Name string
	Why  string
	N    int
	mix  tpcw.Workload // browsing and ordering only
	tpcw bool
}

var workloads = []workloadSpec{
	{Name: "browsing", N: 6000, tpcw: true, mix: tpcw.Browsing,
		Why: "TPC-W Browsing mix, 95% reads answered from cached views: the cache engine does the work (paper headline case)"},
	{Name: "ordering", N: 5000, tpcw: true, mix: tpcw.Ordering,
		Why: "TPC-W Ordering mix, 50% order-class: forwarded writes, backend commits, replication and session-gated reads"},
	{Name: "adhoc_local", N: 10000,
		Why: "cheap literal SQL on cached views, Zipf keys, fits every cache: sql, plan lookup, imcache, router and front wire hop dominate"},
	{Name: "adhoc_remote", N: 4500,
		Why: "literal SQL on uncached tables, uniform keys, larger than the cache: every op is two wire hops and backend engine"},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// probeEvery makes every 50th operation of client 0 the probe; with two
// clients about 1% of operations write item, TPC-W Browsing's own rate.
const probeEvery = 50

// probeItem is the id of a row no workload reads or writes: randItem and the
// ad-hoc templates stay within 1..Items.
func probeItem(cfg tpcw.Config) int64 { return int64(cfg.Items + 1000) }

type opKind uint8

const (
	opInteraction opKind = iota // one TPC-W web interaction via tpcw.App.Run
	opSQL                       // one ad-hoc statement
	opProbe                     // UPDATE then SELECT of the probe row
)

// op is one closed-loop operation. For opSQL, Rows is the row-count
// invariant: an exact count when MaxRows is 0, else the inclusive range
// Rows..MaxRows.
type op struct {
	Kind        opKind
	Interaction tpcw.Interaction
	Shape       string
	SQL         string
	Rows        int
	MaxRows     int
}

// label names the operation in traces and per-shape statistics.
func (o op) label() string {
	switch o.Kind {
	case opInteraction:
		return o.Interaction.String()
	case opProbe:
		return "probe"
	}
	return o.Shape
}

// generator yields the operation stream of one client. The stream is a pure
// function of (seed, workload, client).
type generator struct {
	w      workloadSpec
	client int
	cfg    tpcw.Config
	rng    *rand.Rand
	zipf   *rand.Zipf
	// zipfOffset moves the hot keys with the seed: rank 0 is not always item 1.
	zipfOffset int
	i          int
}

// streamSeed mixes (seed, workload, client) into one RNG seed (splitmix64
// finaliser), so neighbouring seeds and clients share no prefix.
func streamSeed(seed int64, workload string, client int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(client+1)*0xBF58476D1CE4E5B9
	for _, c := range []byte(workload) {
		x = (x ^ uint64(c)) * 0x94D049BB133111EB
	}
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

func newGenerator(w workloadSpec, seed int64, client int, cfg tpcw.Config) *generator {
	rng := rand.New(rand.NewSource(streamSeed(seed, w.Name, client)))
	g := &generator{w: w, client: client, cfg: cfg, rng: rng}
	g.zipf = rand.NewZipf(rng, 1.2, 1, uint64(cfg.Items-1))
	g.zipfOffset = rng.Intn(cfg.Items)
	return g
}

// next returns the client's next operation.
func (g *generator) next() op {
	g.i++
	if g.client == 0 && g.i%probeEvery == 0 {
		return op{Kind: opProbe}
	}
	switch {
	case g.w.tpcw:
		return op{Kind: opInteraction, Interaction: tpcw.Pick(g.w.mix, g.rng)}
	case g.w.Name == "adhoc_local":
		return g.adhocLocal()
	default:
		return g.adhocRemote()
	}
}

// zipfItem draws an item id with Zipf(1.2) popularity; 617 is coprime with
// the item count, so ranks spread over the id space instead of clustering.
func (g *generator) zipfItem() int {
	rank := int(g.zipf.Uint64())
	return (rank*617+g.zipfOffset)%g.cfg.Items + 1
}

// adhocLocal: literal SQL answerable entirely from the four cached views.
func (g *generator) adhocLocal() op {
	x := g.rng.Intn(100)
	k := g.zipfItem()
	switch {
	case x < 40:
		return op{Kind: opSQL, Shape: "item_point", Rows: 1,
			SQL: fmt.Sprintf("SELECT i_title, i_cost, i_srp FROM item WHERE i_id = %d", k)}
	case x < 60:
		return op{Kind: opSQL, Shape: "item_author_join", Rows: 1,
			SQL: fmt.Sprintf("SELECT i.i_title, a.a_fname, a.a_lname FROM item i, author a WHERE i.i_a_id = a.a_id AND i.i_id = %d", k)}
	case x < 80:
		subject := tpcw.Subjects[k%len(tpcw.Subjects)]
		return op{Kind: opSQL, Shape: "subject_search", Rows: 1, MaxRows: 50,
			SQL: fmt.Sprintf("SELECT TOP 50 i_id, i_title, i_cost FROM item WHERE i_subject = '%s' ORDER BY i_title", subject)}
	case x < 90:
		lo := k
		if lo > g.cfg.Items-99 {
			lo = g.cfg.Items - 99
		}
		return op{Kind: opSQL, Shape: "item_range100", Rows: 100,
			SQL: fmt.Sprintf("SELECT i_id, i_title FROM item WHERE i_id >= %d AND i_id < %d", lo, lo+100)}
	default:
		return op{Kind: opSQL, Shape: "order_line_agg", Rows: 1,
			SQL: fmt.Sprintf("SELECT COUNT(*), SUM(ol_qty) FROM order_line WHERE ol_i_id = %d", k)}
	}
}

// adhocRemote: literal SQL on customer, address and country, none of which
// any cached view covers; keys are uniform over all customers.
func (g *generator) adhocRemote() op {
	x := g.rng.Intn(100)
	k := g.rng.Intn(g.cfg.Customers) + 1
	switch {
	case x < 40:
		return op{Kind: opSQL, Shape: "customer_point", Rows: 1,
			SQL: fmt.Sprintf("SELECT c_fname, c_lname, c_email FROM customer WHERE c_id = %d", k)}
	case x < 60:
		return op{Kind: opSQL, Shape: "customer_by_uname", Rows: 1,
			SQL: fmt.Sprintf("SELECT c_id, c_passwd FROM customer WHERE c_uname = '%s'", tpcw.Uname(k))}
	case x < 75:
		return op{Kind: opSQL, Shape: "customer_address_country", Rows: 1,
			SQL: fmt.Sprintf("SELECT c.c_fname, a.addr_city, co.co_name FROM customer c, address a, country co "+
				"WHERE c.c_addr_id = a.addr_id AND a.addr_co_id = co.co_id AND c.c_id = %d", k)}
	case x < 90:
		lo := k
		if lo > g.cfg.Customers-99 {
			lo = g.cfg.Customers - 99
		}
		return op{Kind: opSQL, Shape: "customer_range100", Rows: 100,
			SQL: fmt.Sprintf("SELECT c_id, c_uname FROM customer WHERE c_id >= %d AND c_id < %d", lo, lo+100)}
	default:
		// The body of getMostRecentOrder with the parameter inlined; a
		// customer may have no order, so 0 or 1 row.
		return op{Kind: opSQL, Shape: "most_recent_order", Rows: 0, MaxRows: 1,
			SQL: fmt.Sprintf("SELECT TOP 1 o.o_id, o.o_date, o.o_total, o.o_status, o.o_ship_type FROM customer c, orders o "+
				"WHERE c.c_uname = '%s' AND o.o_c_id = c.c_id ORDER BY o.o_id DESC", tpcw.Uname(k))}
	}
}

// checkRows applies an ad-hoc operation's row-count invariant.
func (o op) checkRows(got int) error {
	lo, hi := o.Rows, o.MaxRows
	if hi == 0 {
		hi = lo
	}
	if got < lo || got > hi {
		return fmt.Errorf("%s returned %d rows, want %d..%d: %s", o.Shape, got, lo, hi, o.SQL)
	}
	return nil
}
