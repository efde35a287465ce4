package tpcw

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/types"
)

// base date for generated timestamps; fixed so runs are reproducible.
var epoch = time.Date(2002, 1, 1, 0, 0, 0, 0, time.UTC)

var (
	firstNames = []string{"JAMES", "MARY", "JOHN", "PATRICIA", "ROBERT", "LINDA",
		"MICHAEL", "BARBARA", "WILLIAM", "ELIZABETH", "DAVID", "JENNIFER",
		"RICHARD", "MARIA", "CHARLES", "SUSAN", "JOSEPH", "MARGARET"}
	lastNames = []string{"SMITH", "JOHNSON", "WILLIAMS", "JONES", "BROWN",
		"DAVIS", "MILLER", "WILSON", "MOORE", "TAYLOR", "ANDERSON", "THOMAS",
		"JACKSON", "WHITE", "HARRIS", "MARTIN", "THOMPSON", "GARCIA"}
	titleWords = []string{"THE", "LOST", "SECRET", "HISTORY", "OF", "GARDEN",
		"NIGHT", "RIVER", "STONE", "SHADOW", "LIGHT", "WINTER", "SUMMER",
		"CROWN", "EMPIRE", "SILENT", "GOLDEN", "FORGOTTEN", "LAST", "FIRST",
		"DREAM", "FIRE", "OCEAN", "MOUNTAIN", "CITY"}
	publishers = []string{"ADDISON", "WILEY", "PENGUIN", "RANDOM", "HARPER", "OXFORD"}
	countries  = []string{"United States", "United Kingdom", "Canada", "Germany",
		"France", "Japan", "Netherlands", "Italy", "Switzerland", "Australia"}
	states = []string{"AZ", "CA", "CO", "FL", "GA", "IL", "MA", "NY", "TX", "WA"}
	ships  = []string{"AIR", "UPS", "FEDEX", "SHIP", "COURIER", "MAIL"}
)

// Load generates and bulk-loads a TPC-W database onto the backend.
// Generation is deterministic in cfg.Seed. It gathers no optimizer
// statistics: the caller runs DB.Analyze once it has loaded everything it
// loads, so that every table is analyzed once.
func Load(b *core.BackendServer, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := b.ExecScript(SchemaDDL); err != nil {
		return fmt.Errorf("tpcw: schema: %w", err)
	}
	if err := CreateProcedures(b); err != nil {
		return fmt.Errorf("tpcw: procedures: %w", err)
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// country
	var rows []types.Row
	for i, name := range countries {
		rows = append(rows, types.Row{types.NewInt(int64(i + 1)), types.NewString(name)})
	}
	if err := b.DB.BulkLoad("country", rows); err != nil {
		return err
	}

	// address (2 per customer, spec ratio)
	nAddr := cfg.Customers * 2
	rows = rows[:0]
	for i := 1; i <= nAddr; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("%d %s St", r.Intn(999)+1, lastNames[r.Intn(len(lastNames))])),
			types.NewString(fmt.Sprintf("City%d", r.Intn(1000))),
			types.NewString(states[r.Intn(len(states))]),
			types.NewString(fmt.Sprintf("%05d", r.Intn(100000))),
			types.NewInt(int64(r.Intn(len(countries)) + 1)),
		})
	}
	if err := b.DB.BulkLoad("address", rows); err != nil {
		return err
	}

	// customer
	rows = rows[:0]
	for i := 1; i <= cfg.Customers; i++ {
		fn := firstNames[r.Intn(len(firstNames))]
		ln := lastNames[r.Intn(len(lastNames))]
		since := epoch.Add(time.Duration(r.Intn(365*24)) * time.Hour)
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(Uname(i)),
			types.NewString(fmt.Sprintf("pw%d", i)),
			types.NewString(fn),
			types.NewString(ln),
			types.NewInt(int64(r.Intn(nAddr) + 1)),
			types.NewString(fmt.Sprintf("%s.%s%d@example.com", fn, ln, i)),
			types.NewTime(since),
			types.NewTime(since.Add(24 * time.Hour)),
			types.NewFloat(float64(r.Intn(51)) / 100.0),
			types.NewFloat(0),
			types.NewFloat(float64(r.Intn(100000)) / 100.0),
		})
	}
	if err := b.DB.BulkLoad("customer", rows); err != nil {
		return err
	}

	// author
	nAuthors := cfg.numAuthors()
	rows = rows[:0]
	for i := 1; i <= nAuthors; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(firstNames[r.Intn(len(firstNames))]),
			types.NewString(lastNames[r.Intn(len(lastNames))]),
		})
	}
	if err := b.DB.BulkLoad("author", rows); err != nil {
		return err
	}

	// item
	rows = rows[:0]
	for i := 1; i <= cfg.Items; i++ {
		title := fmt.Sprintf("%s %s %s %d",
			titleWords[r.Intn(len(titleWords))],
			titleWords[r.Intn(len(titleWords))],
			titleWords[r.Intn(len(titleWords))], i)
		srp := float64(r.Intn(9900)+100) / 100.0
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(title),
			types.NewInt(int64(r.Intn(nAuthors) + 1)),
			types.NewTime(epoch.Add(-time.Duration(r.Intn(365*10*24)) * time.Hour)),
			types.NewString(publishers[r.Intn(len(publishers))]),
			types.NewString(Subjects[r.Intn(len(Subjects))]),
			types.NewString("A fine book about " + titleWords[r.Intn(len(titleWords))]),
			types.NewInt(int64(r.Intn(cfg.Items) + 1)),
			types.NewInt(int64(10 + r.Intn(30))),
			types.NewFloat(srp * (0.5 + r.Float64()*0.5)),
			types.NewFloat(srp),
		})
	}
	if err := b.DB.BulkLoad("item", rows); err != nil {
		return err
	}

	// orders + order_line + cc_xacts
	nOrders := cfg.numOrders()
	rows = rows[:0]
	var lines, xacts []types.Row
	for o := 1; o <= nOrders; o++ {
		cid := r.Intn(cfg.Customers) + 1
		date := epoch.Add(time.Duration(r.Intn(365*24*60)) * time.Minute)
		nl := r.Intn(5) + 1
		var total float64
		for l := 1; l <= nl; l++ {
			qty := r.Intn(4) + 1
			total += float64(qty) * 25
			lines = append(lines, types.Row{
				types.NewInt(int64(o)),
				types.NewInt(int64(l)),
				types.NewInt(int64(r.Intn(cfg.Items) + 1)),
				types.NewInt(int64(qty)),
				types.NewFloat(float64(r.Intn(30)) / 100.0),
			})
		}
		rows = append(rows, types.Row{
			types.NewInt(int64(o)),
			types.NewInt(int64(cid)),
			types.NewTime(date),
			types.NewFloat(total),
			types.NewFloat(total * 1.08),
			types.NewString(ships[r.Intn(len(ships))]),
			types.NewString("SHIPPED"),
		})
		xacts = append(xacts, types.Row{
			types.NewInt(int64(o)),
			types.NewString("VISA"),
			types.NewString(fmt.Sprintf("4%015d", r.Int63n(1e15))),
			types.NewString(lastNames[r.Intn(len(lastNames))]),
			types.NewFloat(total * 1.08),
			types.NewTime(date),
		})
	}
	if err := b.DB.BulkLoad("orders", rows); err != nil {
		return err
	}
	if err := b.DB.BulkLoad("order_line", lines); err != nil {
		return err
	}
	return b.DB.BulkLoad("cc_xacts", xacts)
}

// Uname is the deterministic username of customer i, built in a stack
// buffer: the string is its one allocation.
func Uname(i int) string {
	var buf [24]byte
	return string(strconv.AppendInt(append(buf[:0], "user"...), int64(i), 10))
}
