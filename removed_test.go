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
