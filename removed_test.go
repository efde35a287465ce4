package mtcache

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// removedNames lists what a simplification deleted and must not come back:
// a second mechanism beside the one that replaced it. Each name is a regular
// expression no non-test Go file in scope may match; the scope is a regular
// expression over slash-separated paths from the repository root ("" for
// every file, the bench module's included).
var removedNames = []struct {
	name, scope, replacedBy string
}{
	{`mvPlans`, "", "a view definition taken apart once (opt.ChangeMap)"},
	{`locateViewRow`, "", "a view definition taken apart once (opt.ChangeMap)"},
	{`locateTargetRow`, "", "a view definition taken apart once (opt.ChangeMap)"},
	{`viewSource`, "", "a view definition taken apart once (opt.ChangeMap)"},
	{`derivePK`, "", "a view definition taken apart once (opt.ChangeMap)"},
	{`(?m)^func \([^)]*\) (project|matches)\(`, `^internal/(engine|repl)/`, "opt.ChangeMap's one project and matches"},
	{`DeparseCall`, "", "a call forwarded as its shape (sql.CallShape)"},
	{`autoCache`, "", "one plan cache"},
	{`autoMu`, "", "one plan cache"},
	{`planMu`, "", "one plan cache"},
	{`PlanCacheCap`, "", "one plan cache"},
	{`AutoParamCacheSize`, "", "one plan cache"},
	{`"encoding/gob"`, "", "one binary encoding (types/codec.go)"},
	{`GobEncode`, "", "one binary encoding (types/codec.go)"},
	{`GobDecode`, "", "one binary encoding (types/codec.go)"},
	{`cacheCkptMagic`, "", "one image format and writer (storage.WriteImage)"},
	{`cacheCRCTable`, "", "one image format and writer (storage.WriteImage)"},
	{`LSNExecer`, "", "one forward path (one Query, classified by sql.ReadOnly)"},
	{`SpanQuerier`, "", "one forward path (one Query, classified by sql.ReadOnly)"},
	{`reqExec`, "", "one forward path (one Query, classified by sql.ReadOnly)"},
	{`firstWord`, "", "one forward path (one Query, classified by sql.ReadOnly)"},
	{`DrainAfterThrough`, "", "one copy of the change stream (a pull reads the WAL)"},
	{`SetLogReader`, "", "one copy of the change stream (a pull reads the WAL)"},
	{`PendingFor`, "", "one copy of the change stream (a pull reads the WAL)"},
	{`RunLogReader`, "", "one copy of the change stream (a pull reads the WAL)"},
	{`readerOn`, "", "one copy of the change stream (a pull reads the WAL)"},
	{`nextLSN`, `^internal/repl/`, "one copy of the change stream (no subscription cursor)"},
	{`make\(chan \*response`, `^internal/wire/client\.go$`, "pooled call slots (a round trip builds no channel)"},
	{`time\.NewTimer`, `^internal/wire/client\.go$`, "pooled call slots (one timer per slot)"},
	{`imKey`, "", "one result key (imcache.Key: shape and hash)"},
	{`imWriteValue`, "", "one result key (imcache.Key: shape and hash)"},
	{`imFreshnessKey`, "", "one result key (a bounded text's twin found by the front door)"},
	{`imStripFreshnessRefs`, "", "one result key (a bounded text's twin found by the front door)"},
	{`imCollectParams`, "", "one result key (a bounded text's twin found by the front door)"},
	{`viewFreshEnough`, `^internal/opt/`, "one staleness per cache, checked at run time"},
	{`HasFreshness`, `^internal/opt/`, "one staleness per cache, checked at run time"},
	{`MaxStaleness`, `^internal/opt/`, "one staleness per cache, checked at run time"},
	{`ViewStaleness`, "", "one staleness per cache, checked at run time"},
	{`HasView`, `^internal/repl/`, "one staleness per cache, checked at run time"},
	{`MaxStaleAge`, "", "the result cache has no clock (one staleness per cache)"},
	{`staleAt`, `^internal/imcache/`, "the result cache has no clock (one staleness per cache)"},
	{`overStale`, `^internal/imcache/`, "the result cache has no clock (one staleness per cache)"},
	{`dropOverStale`, `^internal/imcache/`, "the result cache has no clock (one staleness per cache)"},
	{`"time"`, `^internal/imcache/imcache\.go$`, "the result cache has no clock (one staleness per cache)"},
	{`hasDML`, `^internal/engine/`, "one forwarding rule for a call (catalog.Procedure.Writes)"},
	{`unkept`, `^internal/engine/`, "one way in for a call (CallProcedure is Exec of its shape)"},
	{`CallShape\(proc\.Name`, `^internal/engine/`, "one way out for a call (forwarded as it arrived)"},
	{`exec\.Exchange`, "", "one goroutine per statement"},
	{`PartialAgg`, "", "one goroutine per statement"},
	{`FinalAgg`, "", "one goroutine per statement"},
	{`MaxDOP`, "", "one goroutine per statement"},
	{`ParallelStartupCost`, "", "one goroutine per statement"},
	{`ShareBuild`, "", "one goroutine per statement"},
	{`sharedBuild`, "", "one goroutine per statement"},
	{`bindPartitions`, "", "one goroutine per statement"},
	{`SlotPartitions`, "", "one goroutine per statement"},
	{`SeparatorKeys`, "", "one goroutine per statement"},
	{`AscendPartition`, "", "one goroutine per statement"},
	{`parallel_exchanges`, "", "one goroutine per statement"},
	{`runtime\.GOMAXPROCS`, `^internal/(opt|exec)/`, "one goroutine per statement"},
	{`\bgo (func|[a-z]\w*\.)`, `^internal/exec/`, "one goroutine per statement"},
	{`scopeless`, `^internal/engine/`, "a write planned once (writePlan)"},
	{`keyLower`, `^internal/engine/`, "a write planned once (writePlan)"},
	{`pkSeek`, `^internal/engine/`, "a write's access path from opt's index chooser"},
	{`keyArg`, `^internal/engine/`, "a write's access path from opt's index chooser"},
	{`scanTargets`, `^internal/engine/`, "a write's access path from opt's index chooser"},
	{`(?m)^\s+seek\s`, `^internal/engine/`, "a write's access path from opt's index chooser (writePlan.index, lo and hi)"},
	{`func \(wp \*writePlan\) key\(`, `^internal/engine/`, "a write's access path from opt's index chooser (exec.SeekBounds)"},
	{`"mtcache/internal/querystore"`, "", "per-shape statistics on the plan-cache entry (events ride the metrics registry)"},
	{`querystore\.Default`, "", "per-shape statistics on the plan-cache entry"},
	{`(^|[^.\w])NewStore\(`, `^(internal/(querystore|metrics|engine|obs)|cmd)/`, "per-shape statistics on the plan-cache entry"},
	{`entryLocked`, "", "per-shape statistics on the plan-cache entry"},
	{`querystore\.shapes`, "", "per-shape statistics on the plan-cache entry (bounded by the plan cache)"},
	{`querystore\.evictions`, "", "per-shape statistics on the plan-cache entry (bounded by the plan cache)"},
	{`qsEnabled`, "", "per-shape statistics on the plan-cache entry (no on/off switch)"},
	{`trace\.Traces\b`, "", "each server's own trace ring (engine.Database.Traces)"},
	{`(?m)^\s+TraceID\s+string\b`, `^internal/metrics/`, "no trace ID on an event (no emitter ever set one)"},
	{`(?s)type Record struct \{[^}]*sync\.`, `^internal/trace/`, "a record one goroutine fills: a plain value the ring copies"},
	{`invalidateDMLTarget`, `^internal/engine/`, "no result cache on a backend: replication apply is the one invalidation a write causes"},
	{`SyncReplication`, "", "a cache's owner drives its pulls (CacheServer.Pull)"},
	{`inProcessCaches`, "", "a cache's owner drives its pulls (the backend keeps no cache registry)"},
	{`\bcaches\b`, `^internal/core/`, "a cache's owner drives its pulls (the backend keeps no cache registry)"},
	{`StartReplication`, "", "a cache's owner drives its pulls (CacheServer.StartPulling; the backend's truncation is Repl.Start)"},
	{`StopReplication`, "", "a cache's owner drives its pulls (CacheServer.StopPulling; the backend's truncation is Repl.Stop)"},
	{`min2`, `^internal/opt/`, "the builtin min"},
	{`max2`, `^internal/opt/`, "the builtin max"},
	{`sortFloats`, `^internal/opt/`, "slices.Sort"},
	{`(?m)^\s+IMCache\s+\*imcache\.Options`, `^internal/engine/`, "one result-cache configuration (imcache defaults)"},
	{`appendSpan`, `^internal/wire/`, "a trace crosses a hop by its ID (a reader stitches records on read: trace.Record.Stitch)"},
	{`decodeSpan`, `^internal/wire/`, "a trace crosses a hop by its ID (a reader stitches records on read: trace.Record.Stitch)"},
	{`flagSpan`, `^internal/wire/`, "a trace crosses a hop by its ID (a reader stitches records on read: trace.Record.Stitch)"},
	{`maxSpanDepth`, `^internal/wire/`, "a trace crosses a hop by its ID (a reader stitches records on read: trace.Record.Stitch)"},
	{`(?m)^\s+Span\s+\*trace\.WireSpan`, `^internal/wire/`, "a trace crosses a hop by its ID (no span tree in a response)"},
	{`EndSpan\([^,()]+,`, "", "a trace crosses a hop by its ID (no tree grafted under a remote span while it runs)"},
	{`StartSpan`, "", "a record's round trips and branch as fields (trace.Record)"},
	{`EndSpan`, "", "a record's round trips and branch as fields (trace.Record)"},
	{`\.Annotate\(`, "", "a record's round trips and branch as fields (trace.Record)"},
	{`internal/eventlog`, "", "an event is a counter that keeps its line (metrics.Registry.Event)"},
	{`eventlog\.`, "", "an event is a counter that keeps its line (metrics.Registry.Event)"},
	{`HasDurableState`, "", "a durable backend recovers from its own directory (engine.Open)"},
	{`schema must be recreated`, "", "a durable backend recovers from its own directory (DDL is a log record)"},
	{`func \(db \*Database\) Recover\(`, `^internal/engine/`, "a durable backend recovers from its own directory (engine.Open)"},
	{`CreateSchema`, `^cmd/`, "a durable backend recovers from its own directory (TPC-W loads into an empty catalog)"},
	{`reqResume`, "", "a cached view attaches with one request (Provision resumes at its FromLSN or seeds)"},
	{`func \([^)]*\) Resume\(`, `^internal/(wire|core|repl)/`, "a cached view attaches with one request (Provision resumes at its FromLSN or seeds)"},
	{`reqApplied`, "", "nothing: no caller probed a server's applied LSN"},
	{`AppliedLSN\(\) \(storage\.LSN, error\)`, `^internal/wire/`, "nothing: no caller probed a server's applied LSN"},
	{`ServeBackendOpts`, "", "ServeBackend (nothing set the options)"},
	{`\bFaultProxy\b`, `^[^/]+\.go$`, "nothing: no caller outside wire's own tests (wire.FaultProxy stays)"},
	{`\bFaultConfig\b`, `^[^/]+\.go$`, "nothing: no caller outside wire's own tests (wire.FaultConfig stays)"},
	{`\bNewFaultProxy\b`, `^[^/]+\.go$`, "nothing: no caller outside wire's own tests (wire.NewFaultProxy stays)"},
	{`SyncAlways`, "", "one commit rule (group commit; nothing leaves a durable backend before an fsync covers it)"},
	{`SyncInterval`, "", "one commit rule (group commit; nothing leaves a durable backend before an fsync covers it)"},
	{`SyncNone`, "", "one commit rule (group commit; nothing leaves a durable backend before an fsync covers it)"},
	{`ParseSyncPolicy`, "", "one commit rule (group commit; backend-server has no -sync flag)"},
	{`sync-interval`, "", "one commit rule (group commit; backend-server has no -sync flag)"},
	{`\bInterval:`, "", "one commit rule (group commit; DurabilityOptions has no fsync cadence)"},
	{`func \(s \*Store\) Sync\(`, `^internal/storage/`, "one commit rule (a commit waits for its fsync; Store.WaitDurable)"},
	{`(?m)^\s+Args\s`, `^internal/imcache/`, "literals rendered on read from the entry's key values (Entry.Vals)"},
	{`func \(s \*Store\) Durable\(`, `^internal/storage/`, "a log that names itself (Provision resumes only on a matching log ID)"},
	{`\bfeeds\(subName`, `^internal/repl/`, "a log that names itself (Provision resumes only on a matching log ID)"},
	{`Env\.Named|\bNamed:`, `^internal/(exec|opt|engine)/`, "a parameter's one address: its slot, given when opt compiles it (exec.Env.Bind)"},
	{`Merged\(`, `^internal/(exec|opt|engine)/`, "a parameter's one address (a Remote sends the names its text reads, from its slots)"},
	{`Bound \[\]bool`, `^internal/(exec|opt|engine)/`, "a parameter's one address (every slot is bound before a statement runs)"},
	{`\bctx\.Params\b`, `^internal/(exec|opt|engine)/`, "a parameter's one address (exec.Ctx holds slots only)"},
	{`AssignParamSlots|WalkExprs`, `^internal/(exec|opt|engine)/`, "a parameter's one address (opt.Params slots a parameter as it compiles it)"},
	{`replayLocate`, `^internal/storage/`, "one way to apply a change (recovery replays through Txn.Apply)"},
	{`pkCovered`, `^internal/storage/`, "one way to apply a change (recovery replays through Txn.Apply)"},
	{`EachExpr\(`, "", "nothing: no caller walked an operator's own expressions (exec.Operator describes itself in four methods)"},
	{`\bPermission`, `^internal/(catalog|core|engine|wire)/`, "nothing: no session carries a user, so no grant was ever checked (authorization is not reproduced)"},
	{`\bGrant\(`, `^internal/(catalog|core|engine|wire)/`, "nothing: no session carries a user, so no grant was ever checked (authorization is not reproduced)"},
	{`\bAllowed\(`, `^internal/(catalog|core|engine|wire)/`, "nothing: no session carries a user, so no grant was ever checked (authorization is not reproduced)"},
	{`\bPerms\b`, `^internal/(catalog|core|engine|wire)/`, "nothing: a shadow catalog carries only what a cache uses (script, statistics, procedures)"},
	{`ValidateAggShape`, "", "nothing: no code called it"},
	{`\bSetCol\(`, `^internal/catalog/`, "nothing: no code called it"},
	{`\bIndexMeta\(`, `^internal/storage/`, "nothing: no code called it"},
	{`\bIsWrite\(`, `^internal/storage/`, "nothing: no code called it (the store reads Txn.write)"},
	{`func \(t \*Txn\) ID\(`, `^internal/storage/`, "nothing: no code called it (the store reads Txn.id)"},
	{`\bLogID\(\)`, "", "a position named by the incarnation that wrote it (storage.Store.IDAt)"},
	{`OpenAppend`, "", "each open starts a segment of its own, and no segment is written again once closed"},
	{`segmentValidSize`, "", "each open starts a segment of its own, and no segment is written again once closed"},
	{`\.Spare\(\)`, "", "one type that owns a decoded answer on both wire hops (exec.Answer: engine.Result.Store, exec.ResultSet.Store)"},
	{`pullUpJoinLeft|pullUpJoinRight`, `^internal/opt/`, "one ChoosePlan pull-up through a join (opt.pullUpJoin; a right-side ChoosePlan is passed swapped)"},
	{`altIsLeft`, `^internal/opt/`, "one ChoosePlan pull-up through a join (opt.pullUpJoin; a right-side ChoosePlan is passed swapped)"},
	{`applyStagesAlt`, `^internal/opt/`, "one way to finish a remote candidate (opt.finishRemote)"},
	{`wholeQueryRemote`, `^internal/opt/`, "one join estimate (opt.estimateJoin): a LEFT JOIN is a remote candidate that finishRemote finishes"},
	{`shipWhole`, `^internal/opt/`, "one stage estimate: a statement shipped whole costs applyStagesLocal's work at RemoteCostFactor"},
	{`\blocalJoin\b`, `^internal/opt/`, "one join estimate (opt.estimateJoin weighs both orientations)"},
	{`lookupCost`, `^internal/opt/`, "one join estimate (opt.estimateJoin)"},
	{`\.Own\(`, `^internal/(engine|wire|router)/`, "one type that owns a decoded answer on both wire hops (exec.Answer: engine.Result.Store, exec.ResultSet.Store)"},
}

// TestRemovedNamesStayRemoved walks every non-test Go file in the repository
// and fails on each removed name it finds in scope.
func TestRemovedNamesStayRemoved(t *testing.T) {
	type guard struct {
		name, scope *regexp.Regexp
		replacedBy  string
	}
	guards := make([]guard, len(removedNames))
	for i, r := range removedNames {
		guards[i] = guard{regexp.MustCompile(r.name), regexp.MustCompile(r.scope), r.replacedBy}
	}
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git and build output
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		slash := filepath.ToSlash(path)
		for _, g := range guards {
			if g.scope.MatchString(slash) && g.name.Match(src) {
				t.Errorf("%s: %s is back; it was removed for %s", slash, g.name, g.replacedBy)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files: not the repository", files)
	}
}
