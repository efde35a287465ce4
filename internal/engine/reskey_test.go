package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/imcache"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// A result answers only the values it was computed under, kind for kind: the
// BOOL TRUE, the INT 1 and the FLOAT 1.0 are three results of one statement,
// whatever Value.Hash makes of the numeric kinds.
func TestResultKeyIsKindExact(t *testing.T) {
	db, _ := imTestDB(t, nil)
	const q = "SELECT v, @x AS x FROM t WHERE id = 1"
	for _, x := range []types.Value{types.NewBool(true), types.NewBool(true), types.NewBool(true), types.NewInt(1), types.NewFloat(1)} {
		res, err := db.Exec(q, exec.Params{"x": x})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][1]; !types.Identical(got, x) {
			t.Fatalf("@x = %v (%v): answered %v (%v)", x, x.K, got, got.K)
		}
	}
}

// Computing a warm shape's result key — the values it references, hashed —
// allocates nothing.
func TestResultKeyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	db, _ := imTestDB(t, nil)
	const q = "SELECT w FROM t WHERE id = 123 AND v > @Min"
	params := exec.Params{"Min": types.NewInt(1), "other": types.NewString("unreferenced")}
	e, args, _, norm, ok := db.autoParse(q, params)
	if !ok {
		t.Fatal("not through the front door")
	}
	defer normPool.Put(norm)
	var key imcache.Key
	if avg := testing.AllocsPerRun(500, func() {
		var buf [8]types.Value
		vals, ok := e.keyValues(buf[:0], params, args)
		if n := len(vals); !ok || n != 2 {
			t.Fatalf("%d key values, %v", n, ok)
		}
		key = imcache.KeyOf(q, vals)
	}); avg != 0 {
		t.Errorf("result key: %.1f allocs, want 0", avg)
	}
	_ = key
}

// Property: two executions share a result entry iff they have the same twin
// shape — the text with any trailing WITH FRESHNESS bound taken off, literals
// as parameters — and == values for the parameters that shape references.
// How the bound is spelled (none, a literal, @f), the case a parameter name
// is spelled in (@x and @X are two parameters), and parameters the statement
// does not reference make no difference. Every answer, shared or not, is the
// one the backend, which has no result cache, gives.
func TestResultEntrySharedIffTwinShapeAndValues(t *testing.T) {
	db, _ := imTestDB(t, &imcache.Options{AdmitAfter: 1})
	plain := newFactDB(t)

	templates := []string{
		"SELECT v, %s AS x FROM t WHERE id = %s",
		"SELECT COUNT(*) AS n FROM t WHERE grp = %s OR grp = %s",
	}
	literals := []struct {
		text string
		val  types.Value
	}{{"1", types.NewInt(1)}, {"2", types.NewInt(2)}, {"1.0", types.NewFloat(1)}}
	values := []types.Value{types.NewInt(1), types.NewInt(2), types.NewFloat(1), types.NewBool(true), types.NewString("1")}
	names := []string{"x", "X"}
	bounds := []string{"", " WITH FRESHNESS 300", " WITH FRESHNESS @f"}

	// execution is one statement: its text and parameters, and what the
	// property says identifies its result — twin shape and referenced values.
	type execution struct {
		text   string
		params exec.Params
		shape  string
		vals   []types.Value
	}
	r := rand.New(rand.NewSource(7))
	gen := func() execution {
		tmpl := r.Intn(len(templates))
		params := exec.Params{}
		var slots []any
		shape := fmt.Sprint(tmpl)
		var vals []types.Value
		for s := 0; s < 2; s++ {
			if r.Intn(2) == 0 {
				lit := literals[r.Intn(len(literals))]
				slots = append(slots, lit.text)
				shape += "|literal"
				vals = append(vals, lit.val)
				continue
			}
			name := names[r.Intn(len(names))]
			if _, bound := params[name]; !bound {
				params[name] = values[r.Intn(len(values))]
			}
			slots = append(slots, "@"+name)
			shape += "|@" + name
			vals = append(vals, params[name])
		}
		for _, extra := range []string{"x", "X", "zz"} {
			if _, bound := params[extra]; !bound && r.Intn(3) == 0 {
				params[extra] = values[r.Intn(len(values))] // referenced by nothing
			}
		}
		bound := bounds[r.Intn(len(bounds))]
		if strings.Contains(bound, "@f") {
			params["f"] = types.NewInt(300)
		}
		return execution{fmt.Sprintf(templates[tmpl], slots...) + bound, params, shape, vals}
	}
	unbound := func(x execution) string {
		text, _, _ := strings.Cut(x.text, " WITH FRESHNESS")
		return text
	}

	shared := 0
	for trial := 0; trial < 400; trial++ {
		a, b := gen(), gen()
		if trial%4 == 0 {
			b.params = exec.Params{} // b is a with other spellings of its bound and its extras
			for n, v := range a.params {
				b.params[n] = v
			}
			b.text, b.shape, b.vals = unbound(a)+bounds[trial/4%len(bounds)], a.shape, a.vals
			b.params["f"] = types.NewFloat(0.5)
			b.params["zz"] = types.NewInt(int64(trial))
		}
		// Empty the cache, then admit a's result: AdmitAfter is 1.
		db.SetIMCacheEnabled(true)
		if _, err := db.Exec(unbound(a), a.params); err != nil {
			t.Fatalf("%s %v: %v", unbound(a), a.params, err)
		}
		res, rec, err := db.ExecSessionTraced(b.text, b.params, 0, 0, 0)
		if err != nil {
			t.Fatalf("%s %v: %v", b.text, b.params, err)
		}
		want := a.shape == b.shape && slices.EqualFunc(a.vals, b.vals, types.Identical) // kind for kind
		if got := rec.Tier == trace.TierIMCache; got != want {
			t.Fatalf("after %s %v, %s %v: shared an entry %v, want %v", unbound(a), a.params, b.text, b.params, got, want)
		}
		if want {
			shared++
		}
		ref, err := plain.Exec(b.text, b.params)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(res.Rows, ref.Rows, func(x, y types.Row) bool { return slices.EqualFunc(x, y, types.Identical) }) {
			t.Fatalf("%s %v: answered %v, want %v", b.text, b.params, res.Rows, ref.Rows)
		}
	}
	if shared < 100 {
		t.Errorf("only %d of 400 pairs shared an entry: the property was barely exercised", shared)
	}
}
