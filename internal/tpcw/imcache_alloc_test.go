package tpcw

import (
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

// TestResultCacheHitAllocBudget: what a statement the result cache answers
// allocates between arriving as text and leaving as rows, on a TPC-W cache —
// a literal point SELECT, the same shape with a named parameter, and each of
// them under WITH FRESHNESS, which reaches its unbounded twin's entry with no
// parse, deparse or second normalization. Every run is a hit and none parses.
// The key costs nothing; what is left is the statement's record, its ID and
// the Result. Each ceiling is the measured count plus one, and a bounded hit
// costs at most one object more than its twin.
func TestResultCacheHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	_, c := loadedPair(t, DefaultConfig())
	const (
		literal = "SELECT i_title, i_cost, i_srp FROM item WHERE i_id = 17"
		named   = "SELECT i_title, i_cost, i_srp FROM item WHERE i_id = @id"
	)
	cases := []struct {
		name    string
		text    string
		params  exec.Params
		twin    string // the unbounded case whose entry a bounded one hits
		ceiling float64
	}{
		{"literal", literal, nil, "", 4},
		{"named parameter", named, exec.Params{"id": types.NewInt(17)}, "", 4},
		{"bounded literal", literal + " WITH FRESHNESS 300", nil, "literal", 4},
		{"bounded named parameter", named + " WITH FRESHNESS @f", exec.Params{"id": types.NewInt(17), "f": types.NewInt(300)}, "named parameter", 4},
	}
	hits, parses := metrics.Default.Counter("imcache.hits"), metrics.Default.Histogram("engine.parse_seconds")
	measured := map[string]float64{}
	for _, tc := range cases {
		run := func() {
			res, err := c.DB.Exec(tc.text, tc.params)
			if err != nil || len(res.Rows) != 1 || res.Counters.RemoteQueries != 0 {
				t.Fatalf("%s: %+v, %v", tc.text, res, err)
			}
		}
		if tc.twin == "" {
			run() // admitted on the second execution
			run()
		}
		hits0, parses0 := hits.Value(), parses.Count()
		avg := testing.AllocsPerRun(200, run)
		measured[tc.name] = avg
		t.Logf("%s: %.0f allocs", tc.name, avg)
		if n := hits.Value() - hits0; n != 201 {
			t.Errorf("%s: %d of 201 runs were result-cache hits", tc.name, n)
		}
		if n := parses.Count() - parses0; n != 0 {
			t.Errorf("%s: %d runs parsed their text", tc.name, n)
		}
		if avg > tc.ceiling {
			t.Errorf("%s: %.0f allocs, ceiling %.0f", tc.name, avg, tc.ceiling)
		}
		if tc.twin != "" && avg > measured[tc.twin]+1 {
			t.Errorf("%s: %.0f allocs, its twin %.0f: more than one object over", tc.name, avg, measured[tc.twin])
		}
	}
}
