package tpcw

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// TestSessionParamMapIsNotKept: a Session fills one parameter map for every
// call it makes (Session.with), so no path a call takes may keep the
// caller's map past the call. A seeded run of the Ordering mix — reads a
// cache answers from its copies, writers it forwards, calls it holds no copy
// of — goes down each path twice, each time from a freshly loaded pair: once
// handing every call the session's own map and poisoning it as soon as the
// call returns (every value replaced by a string no procedure takes, a key
// added), and once handing every call a fresh copy of it. Every call must
// answer the same in both runs: something that kept the map would read the
// poison, or the next call's values, where the other run reads its own copy.
func TestSessionParamMapIsNotKept(t *testing.T) {
	cfg := smallConfig()
	poison := types.NewString("poison")
	type fns struct {
		exec, call func(string, exec.Params) (*engine.Result, error)
	}
	paths := []struct {
		name string
		conn func(backend, cache callServer) fns
	}{
		{"in-process cache", func(_, c callServer) fns { return fns{c.db.Exec, c.db.CallProcedure} }},
		{"in-process backend", func(b, _ callServer) fns { return fns{b.db.Exec, b.db.CallProcedure} }},
		{"routed to the backend", func(b, _ callServer) fns { s := b.r.Session(); return fns{s.Exec, s.Call} }},
	}
	for _, p := range paths {
		run := func(poisoned bool) []string {
			t.Helper()
			to := p.conn(newCallServers(t, cfg))
			var answers []string
			conn := core.NewConn(p.name, to.exec, func(proc string, params exec.Params) (*engine.Result, error) {
				sent := params
				if !poisoned {
					sent = maps.Clone(params)
				}
				res, err := to.call(proc, sent)
				answers = append(answers, render(proc, params, res, err))
				if poisoned {
					for name := range params {
						params[name] = poison
					}
					params["poisoned"] = poison
				}
				return res, err
			})
			app := NewApp(conn, cfg)
			clock := time.Date(2003, 6, 9, 12, 0, 0, 0, time.UTC)
			app.now = func() time.Time { clock = clock.Add(time.Second); return clock }
			s, mix := app.NewSession(7), rand.New(rand.NewSource(7))
			for range 80 {
				in := Pick(Ordering, mix)
				if _, err := app.Run(s, in); err != nil {
					t.Fatalf("%s: %s: %v", p.name, in, err)
				}
			}
			return answers
		}
		kept, fresh := run(true), run(false)
		if len(kept) < 80 {
			t.Fatalf("%s: only %d calls", p.name, len(kept))
		}
		if i := slices.IndexFunc(kept, func(a string) bool { return strings.Contains(a, "poison") }); i >= 0 {
			t.Errorf("%s: call %d read the poison: %s", p.name, i, kept[i])
		}
		for i := range min(len(kept), len(fresh)) {
			if kept[i] != fresh[i] {
				t.Fatalf("%s: call %d answered differently with the session's map, poisoned after each call:\n%s\nwith a fresh map for each call:\n%s", p.name, i, kept[i], fresh[i])
			}
		}
		if len(kept) != len(fresh) {
			t.Errorf("%s: %d calls with the session's map, %d with fresh ones", p.name, len(kept), len(fresh))
		}
	}
}

// render is one call and its answer as text: the procedure, its arguments in
// name order, then its rows and row count, or its error.
func render(proc string, params exec.Params, res *engine.Result, err error) string {
	var sb strings.Builder
	sb.WriteString(proc)
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(&sb, " @%s=%s", name, params[name].Display())
	}
	if err != nil {
		fmt.Fprintf(&sb, "\n  error: %v", err)
		return sb.String()
	}
	for _, row := range res.Rows {
		sb.WriteString("\n ")
		for _, v := range row {
			sb.WriteString(" " + v.Display())
		}
	}
	fmt.Fprintf(&sb, "\n  %d rows affected", res.RowsAffected)
	return sb.String()
}
