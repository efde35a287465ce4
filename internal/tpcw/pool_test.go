package tpcw

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// readCall is one read a browsing client makes: a procedure with its
// parameters, or one of the five literal shapes of the adhoc_local workload.
type readCall struct {
	label  string
	proc   string // "" for literal SQL
	params exec.Params
	text   string
}

func (rc readCall) run(db *engine.Database) (*engine.Result, error) {
	if rc.proc != "" {
		return db.CallProcedure(rc.proc, rc.params)
	}
	return db.Exec(rc.text, nil)
}

// readProcs are the TPC-W read procedures a cache answers from its views.
var readProcs = []string{"getBook", "getRelated", "doSubjectSearch", "doTitleSearch", "doAuthorSearch", "getNewProducts", "getBestSellers"}

// readCalls is every call the pool tests make: each procedure and each
// adhoc_local shape over a spread of parameters, and getBook's SELECT three
// ways — called, EXEC text with a literal, its body with a literal — so its
// deparse and two front-door shapes key three plan-cache entries. None of
// them reads item 1000 or 5000, which the writer of
// TestPooledPlansUnderConcurrency owns.
func readCalls(t *testing.T, items int) []readCall {
	getBook := procBody(t, "getBook")
	str, num := types.NewString, func(i int) types.Value { return types.NewInt(int64(i)) }
	var calls []readCall
	add := func(proc, name string, v types.Value) {
		calls = append(calls, readCall{label: fmt.Sprintf("%s %v", proc, v), proc: proc, params: exec.Params{name: v}})
	}
	for _, s := range Subjects {
		add("doSubjectSearch", "subject", str(s))
		add("getNewProducts", "subject", str(s))
		add("getBestSellers", "subject", str(s))
		calls = append(calls, readCall{label: "adhoc subject " + s,
			text: fmt.Sprintf("SELECT TOP 50 i_id, i_title, i_cost FROM item WHERE i_subject = '%s' ORDER BY i_title", s)})
	}
	add("getBestSellers", "subject", str("NO SUCH SUBJECT"))
	for _, p := range []string{"%the%", "%1", "zzz%", "A%", "%e%"} {
		add("doTitleSearch", "title", str(p))
	}
	for _, p := range []string{"S%", "%a%", "Q%", "%son"} {
		add("doAuthorSearch", "author", str(p))
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 25; i++ {
		k := 1 + rng.Intn(items-1)
		add("getBook", "i_id", num(k))
		add("getRelated", "i_id", num(k))
		lo := 1 + rng.Intn(items-101)
		calls = append(calls,
			readCall{label: fmt.Sprint("adhoc point ", k), text: fmt.Sprintf("SELECT i_title, i_cost, i_srp FROM item WHERE i_id = %d", k)},
			readCall{label: fmt.Sprint("adhoc join ", k), text: fmt.Sprintf("SELECT i.i_title, a.a_fname, a.a_lname FROM item i, author a WHERE i.i_a_id = a.a_id AND i.i_id = %d", k)},
			readCall{label: fmt.Sprint("adhoc range ", lo), text: fmt.Sprintf("SELECT i_id, i_title FROM item WHERE i_id >= %d AND i_id < %d", lo, lo+100)},
			readCall{label: fmt.Sprint("adhoc agg ", k), text: fmt.Sprintf("SELECT COUNT(*), SUM(ol_qty) FROM order_line WHERE ol_i_id = %d", k)},
			readCall{label: fmt.Sprint("EXEC getBook ", k), text: fmt.Sprint("EXEC getBook ", k)},
			readCall{label: fmt.Sprint("getBook body ", k), text: strings.Replace(getBook, "@i_id", fmt.Sprint(k), 1)},
		)
	}
	add("getBook", "i_id", num(99999))
	return calls
}

// TestPooledPlansUnderConcurrency: eight clients run the read procedures, the
// adhoc_local shapes and literal getBook texts with random parameters against
// one cache — result cache on, every plan's instances shared between them,
// plan-cache entries keyed by deparse and by shape alike — and every answer
// must be the backend's. Meanwhile the plan cache is invalidated, statistics
// are rebuilt, and replicated writes churn the rows and index entries the
// plans read; the writes touch only rows and columns no call returns, so the
// backend's answers, taken once up front, stay the right ones.
func TestPooledPlansUnderConcurrency(t *testing.T) {
	cfg := DefaultConfig()
	b, c := loadedPair(t, cfg)
	calls := readCalls(t, cfg.Items)
	want := make([]string, len(calls))
	rows := 0
	for i, rc := range calls {
		res, err := rc.run(b.DB)
		if err != nil {
			t.Fatalf("%s on the backend: %v", rc.label, err)
		}
		want[i] = canonRows(res.Rows)
		rows += len(res.Rows)
	}
	if rows < 5000 {
		t.Fatalf("the backend returned %d rows in all: the comparison is nearly empty", rows)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch i % 4 {
			case 0:
				c.DB.InvalidatePlans()
			case 1:
				err = c.DB.AnalyzeTable([]string{"cv_item", "cv_orders", "cv_order_line", "cv_author"}[i/4%4])
			case 2:
				_, err = b.Exec(fmt.Sprintf("UPDATE item SET i_stock = %d WHERE i_id = 1000", i), nil)
			case 3:
				if _, err = b.Exec("INSERT INTO item (i_id, i_title, i_subject, i_stock) VALUES (5000, 'qqq', 'PROBE', 1)", nil); err == nil {
					_, err = b.Exec("DELETE FROM item WHERE i_id = 5000", nil)
				}
			}
			if err == nil && i%4 >= 2 {
				_, err = c.Pull()
			}
			if err != nil {
				t.Errorf("churn step %d: %v", i, err)
				return
			}
		}
	}()

	const clients, perClient = 8, 120
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			for i := 0; i < perClient; i++ {
				k := rng.Intn(len(calls))
				res, err := calls[k].run(c.DB)
				if err != nil {
					t.Errorf("client %d: %s: %v", g, calls[k].label, err)
					return
				}
				if got := canonRows(res.Rows); got != want[k] {
					t.Errorf("client %d: %s on the cache returned\n%s\nthe backend\n%s", g, calls[k].label, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}

// TestParkedInstancesPinNothing runs every read procedure for real, then
// takes each plan's parked instances off its free list and walks them by
// reflection: every pointer, interface, map entry and string of the run state
// is gone and every kept slice is zero over its whole capacity, so no row
// version, string, snapshot or span is reachable from a free list. It also
// reports what the free lists of a TPC-W cache hold.
func TestParkedInstancesPinNothing(t *testing.T) {
	cfg := DefaultConfig()
	_, c := loadedPair(t, cfg)
	c.DB.SetIMCacheEnabled(false) // every call executes
	calls := readCalls(t, cfg.Items)
	for _, rc := range calls {
		if _, err := rc.run(c.DB); err != nil {
			t.Fatalf("%s: %v", rc.label, err)
		}
	}
	// An execution that outgrew what an instance may keep ('%e%' matches most
	// titles) drops it; finish on each procedure's first, ordinary call.
	for _, proc := range readProcs {
		for _, rc := range calls {
			if rc.proc == proc {
				if _, err := rc.run(c.DB); err != nil {
					t.Fatalf("%s: %v", rc.label, err)
				}
				break
			}
		}
	}
	total := 0
	for _, proc := range readProcs {
		stmt, err := sql.Parse(procBody(t, proc))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := c.DB.Plan(stmt.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		trees, bytes := plan.Instances.Kept()
		if trees == 0 {
			t.Errorf("%s: no instance parked", proc)
		}
		t.Logf("%-16s %d parked, %6d bytes kept", proc, trees, bytes)
		total += bytes
		for root := plan.Instances.Take(); root != nil; root = plan.Instances.Take() {
			walkParked(t, proc, reflect.ValueOf(root))
		}
	}
	t.Logf("%-16s %8d bytes kept by the %d read procedures' free lists", "total", total, len(readProcs))
}

// walkParked applies the rule to one operator (a pointer to its struct) and
// to everything below it: its inputs, and the worker trees of an Exchange.
func walkParked(t *testing.T, label string, op reflect.Value) {
	t.Helper()
	op = op.Elem()
	operator := reflect.TypeOf((*exec.Operator)(nil)).Elem()
	for i := 0; i < op.NumField(); i++ {
		f := op.Type().Field(i)
		v := reflect.NewAt(f.Type, unsafe.Pointer(op.Field(i).UnsafeAddr())).Elem()
		switch {
		case f.Type == operator:
			walkParked(t, label, v.Elem())
		case f.Type == reflect.SliceOf(operator): // UnionAll.Inputs, Exchange.workers
			for k := 0; k < v.Len(); k++ {
				walkParked(t, label, v.Index(k).Elem())
			}
		case !f.IsExported():
			if what := stillHolds(v); what != "" {
				t.Errorf("%s: a parked %s.%s holds %s", label, op.Type().Name(), f.Name, what)
			}
		}
	}
}

// stillHolds says what a run-state field of a parked operator still refers
// to, "" for nothing.
func stillHolds(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		if !v.IsNil() {
			return "a " + v.Kind().String()
		}
	case reflect.String:
		if v.Len() != 0 {
			return "a string"
		}
	case reflect.Map:
		if v.Len() != 0 {
			return fmt.Sprintf("a map of %d", v.Len())
		}
	case reflect.Slice:
		// An arena's unused tail is its whole kept chunk, so it alone has a
		// length; like every other kept slice it must be zero throughout.
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			if !full.Index(i).IsZero() {
				return fmt.Sprintf("a slice whose element %d of %d is set", i, full.Len())
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if what := stillHolds(v.Field(i)); what != "" {
				return v.Type().Field(i).Name + ": " + what
			}
		}
	}
	return ""
}
