package opt

import (
	"errors"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// TestLocalOnlyPlansInsideView: a query the cached view covers must get a
// fully local, non-dynamic plan even when the cost-based winner would be
// remote or dynamic.
func TestLocalOnlyPlansInsideView(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)

	p, err := OptimizeLocalOnly(sql.MustParseSelect(
		"SELECT cname FROM customer WHERE cid <= 500"), env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.FullyLocal || p.Dynamic {
		t.Fatalf("local-only plan must be fully local and static:\n%s", Explain(p))
	}
	rs, ctr := execute(t, p, store, b, nil)
	if len(rs.Rows) != 500 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	if ctr.RemoteQueries != 0 {
		t.Error("local-only plan touched the backend")
	}
}

// TestLocalOnlyParameterizedNeverDynamic: with a parameter the default
// optimizer builds a ChoosePlan whose remote branch could fire at run time;
// local-only planning must refuse that shape.
func TestLocalOnlyParameterizedNeverDynamic(t *testing.T) {
	b := newBackend(t)
	env, _ := newCache(t, b)

	stmt := sql.MustParseSelect("SELECT cname FROM customer WHERE cid = @cid")
	def, err := Optimize(stmt, env)
	if err != nil {
		t.Fatal(err)
	}
	if !def.Dynamic {
		t.Skipf("expected the default plan to be dynamic:\n%s", Explain(def))
	}
	// Containment does not hold for all parameter values, so no static local
	// plan exists: the local-only planner must reject rather than hand back
	// a plan that silently drops rows.
	if _, err := OptimizeLocalOnly(stmt, env, nil); !errors.Is(err, ErrNoLocalPlan) {
		t.Fatalf("want ErrNoLocalPlan, got %v", err)
	}
}

// TestLocalOnlyProvesContainmentFromBoundValues: given the execution's
// parameter values, the same statement plans statically onto the view when
// they fall inside it, and is refused when they do not.
func TestLocalOnlyProvesContainmentFromBoundValues(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	stmt := sql.MustParseSelect("SELECT cname FROM customer WHERE cid >= @lo AND cid <= @__p0")

	inside := exec.Params{"lo": types.NewInt(401), "__p0": types.NewInt(500)}
	p, err := OptimizeLocalOnly(stmt, env, inside)
	if err != nil {
		t.Fatal(err)
	}
	if !p.FullyLocal || p.Dynamic {
		t.Fatalf("local-only plan must be fully local and static:\n%s", Explain(p))
	}
	if rs, _ := execute(t, p, store, nil, inside); len(rs.Rows) != 100 {
		t.Fatalf("rows: %d, want 100", len(rs.Rows))
	}
	outside := exec.Params{"lo": types.NewInt(401), "__p0": types.NewInt(5000)}
	if _, err := OptimizeLocalOnly(stmt, env, outside); !errors.Is(err, ErrNoLocalPlan) {
		t.Fatalf("want ErrNoLocalPlan, got %v", err)
	}
}

// TestLocalOnlyOutsideViewFails: data the cache does not hold cannot be
// conjured locally.
func TestLocalOnlyOutsideViewFails(t *testing.T) {
	b := newBackend(t)
	env, _ := newCache(t, b)

	_, err := OptimizeLocalOnly(sql.MustParseSelect(
		"SELECT cname FROM customer WHERE cid BETWEEN 5000 AND 5004"), env, nil)
	if !errors.Is(err, ErrNoLocalPlan) {
		t.Fatalf("want ErrNoLocalPlan, got %v", err)
	}
}
