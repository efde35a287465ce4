// Package opt implements cost-based query optimization, including the
// MTCache extensions described in the paper:
//
//   - DataLocation as a physical property of every candidate plan (Local or
//     Remote) with a DataTransfer enforcer whose cost is proportional to the
//     estimated data volume plus a startup cost (§5);
//   - a remote-cost multiplier > 1 so that local execution is favored when
//     costs are close, modeling a heavily loaded backend (§5);
//   - select-project view matching against cached and materialized views,
//     following the Goldstein–Larson view-matching framework (§5, [10]);
//   - dynamic plans for parameterized queries: ChoosePlan implemented as a
//     UnionAll over two branches with complementary startup predicates, with
//     weighted-average costing Fl·Cl + (1−Fl)·Cr (§5.1);
//   - ChoosePlan pull-up above joins, letting the optimizer push larger
//     subexpressions to the backend (§5.1.2);
//   - mixed-result plans for regular materialized views, disallowed for
//     cached views because they could combine data of different freshness
//     (§5.1.1).
package opt

import (
	"mtcache/internal/catalog"
)

// Location is the DataLocation physical property.
type Location uint8

const (
	// Local data is on this server (cached views and their indexes on a
	// cache server; everything on a backend server).
	Local Location = iota
	// Remote data lives on the backend server and needs a DataTransfer to
	// be consumed locally.
	Remote
)

func (l Location) String() string {
	if l == Local {
		return "Local"
	}
	return "Remote"
}

// Options tunes the optimizer. The zero value is not usable; call
// DefaultOptions.
type Options struct {
	// RemoteCostFactor multiplies the estimated cost of every remote
	// operation. The paper sets it "greater than 1.0" to model that the
	// backend is shared and likely loaded.
	RemoteCostFactor float64

	// TransferStartupCost is the fixed cost of one DataTransfer.
	TransferStartupCost float64

	// TransferCostPerByte is the per-byte cost of one DataTransfer.
	TransferCostPerByte float64

	// EnableDynamicPlans produces ChoosePlan branches for parameterized
	// queries (paper §5.1). Disabling it is an ablation: the optimizer then
	// uses the cached view only when containment holds for all parameter
	// values.
	EnableDynamicPlans bool

	// PullUpChoosePlan propagates ChoosePlan above joins and other
	// operators (paper §5.1.2). Disabling it freezes ChoosePlan at the
	// leaves.
	PullUpChoosePlan bool

	// AllowMixedResults permits plans whose result mixes view rows and
	// remote base-table rows. Per §5.1.1 this is only ever applied to
	// regular materialized views; cached views never produce mixed results
	// regardless of this flag, because the cached view may be stale.
	AllowMixedResults bool

	// AlwaysUseCache is the DBCache-style heuristic ablation: when a cached
	// view matches, use it unconditionally instead of cost-comparing with
	// the remote plan.
	AlwaysUseCache bool

	// MaxDOP caps intra-query parallelism. The effective cap is
	// min(MaxDOP, GOMAXPROCS); values < 2 disable parallel plans entirely,
	// so a serial plan stays byte-identical to the pre-parallelism planner
	// output.
	MaxDOP int

	// ParallelStartupCost is the per-worker cost of starting an Exchange
	// (goroutine + partition binding + channel traffic floor). Parallelism
	// is chosen only when the pipeline cost it divides outweighs this, so
	// small lookups stay serial.
	ParallelStartupCost float64
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{
		RemoteCostFactor:    1.4,
		TransferStartupCost: 2000,
		TransferCostPerByte: 0.15,
		EnableDynamicPlans:  true,
		PullUpChoosePlan:    true,
		AllowMixedResults:   true,
		MaxDOP:              8,
		ParallelStartupCost: 400,
	}
}

// Env is everything the optimizer needs about the server it runs on.
type Env struct {
	Cat *catalog.Catalog

	// IsCache marks an MTCache server: base tables (shadow tables) are
	// Remote, cached views are Local. On a backend server everything is
	// Local and no DataTransfer is ever needed.
	IsCache bool

	Opts Options
}

// locationOf returns the DataLocation of a table or view, per the paper's
// rule: "cached views and their indexes are Local and all other data sources
// are Remote" (on a cache server) — shadowed backend materialized views
// included. Virtual system tables (sys.*) describe *this* server's runtime
// state; they are always scanned locally, on backend and cache alike.
func (e *Env) locationOf(t *catalog.Table) Location {
	if t.Virtual || !e.IsCache || t.Cached {
		return Local
	}
	return Remote
}

// Cost-model unit constants. One unit ≈ the cost of scanning one row.
const (
	costScanRow    = 1.0
	costSeekBase   = 4.0  // B-tree descent
	costSeekRow    = 1.1  // per row fetched through an index
	costPredEval   = 0.15 // per conjunct per row
	costProjectRow = 0.05
	costHashBuild  = 1.6
	costHashProbe  = 1.2
	costJoinOutRow = 0.3
	costNLPair     = 0.35
	costSortFactor = 0.3 // × n·log₂(n)
	costAggRow     = 1.1
	costAggGroup   = 0.6

	costExchangeRow = 0.05 // per row gathered through an Exchange channel
)
