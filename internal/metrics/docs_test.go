package metrics

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Documented metric names must exist in the code: every backticked token in
// README.md / DESIGN.md that looks like a metric name (known subsystem
// prefix, all lowercase) must appear as a Counter/Gauge/Histogram/Event
// string literal somewhere under internal/ or cmd/. This pins the docs to the
// registry and catches silent renames on either side.

var docNameRe = regexp.MustCompile("`((?:engine|exec|imcache|opt|repl|storage|wire|querystore)\\.[a-z0-9_]+(?:\\.<view>)?)`")

var registerRe = regexp.MustCompile(`\.(?:Counter|Gauge|Histogram|Event)\("([^"]+)"`)

func TestDocumentedMetricNamesAreRegistered(t *testing.T) {
	registered := map[string]bool{}
	for _, dir := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range registerRe.FindAllStringSubmatch(string(src), -1) {
				registered[m[1]] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(registered) == 0 {
		t.Fatal("no metric registrations found under internal/ and cmd/")
	}

	prefixMatch := func(prefix string) bool {
		if registered[prefix] {
			return true // registered via literal-prefix concatenation
		}
		for name := range registered {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}

	// Sites like Counter("opt.chooseplan_" + branch) register a family of
	// names from a literal prefix; a documented member of the family counts.
	concatPrefixOf := func(registered map[string]bool, name string) bool {
		for p := range registered {
			if (strings.HasSuffix(p, "_") || strings.HasSuffix(p, ".")) && strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}

	checked := 0
	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docNameRe.FindAllStringSubmatch(string(text), -1) {
			name := m[1]
			checked++
			if suffix := ".<view>"; strings.HasSuffix(name, suffix) {
				base := strings.TrimSuffix(name, suffix) + "."
				if !prefixMatch(base) {
					t.Errorf("%s documents %q but no %q* instrument is registered", filepath.Base(doc), name, base)
				}
				continue
			}
			if !registered[name] && !concatPrefixOf(registered, name) {
				t.Errorf("%s documents %q but no such instrument is registered", filepath.Base(doc), name)
			}
		}
	}
	if checked < 30 {
		t.Fatalf("only %d documented metric names found; the doc scan regex is likely broken", checked)
	}
}
