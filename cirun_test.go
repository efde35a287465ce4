package mtcache

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunListsNameRealTests reads the CI workflow and fails on each literal
// name in a `go test -run` list that matches no Test, Fuzz or Benchmark
// function in the packages its step lists. `go test -run` with a name that
// matches nothing passes, so a renamed or deleted test would leave its gate
// running nothing.
func TestCIRunListsNameRealTests(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runList := regexp.MustCompile(`-run '([^']*)'|-run (\S+)`)
	literal := regexp.MustCompile(`^\^?\w+\$?$`)
	names := 0
	for _, line := range strings.Split(string(src), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		m := runList.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		funcs := testFuncs(t, packagesOf(line))
		for _, alt := range strings.Split(m[1]+m[2], "|") {
			if !literal.MatchString(alt) {
				continue // '^$' and other patterns that are not a name
			}
			names++
			re := regexp.MustCompile(alt)
			found := false
			for _, f := range funcs {
				if found = re.MatchString(f); found {
					break
				}
			}
			if !found {
				t.Errorf("ci.yml runs -run %s, which matches no test in %v", alt, packagesOf(line))
			}
		}
	}
	if names < 50 {
		t.Fatalf("found %d names in ci.yml's -run lists: the workflow was not read as expected", names)
	}
}

// packagesOf returns the package patterns (./dir or ./dir/...) a go test
// command line lists; none means the current directory's package.
func packagesOf(line string) []string {
	var pkgs []string
	for _, f := range strings.Fields(line) {
		if strings.HasPrefix(f, "./") {
			pkgs = append(pkgs, strings.TrimRight(f, ")"))
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return pkgs
}

// testFuncs returns the names of the Test, Fuzz and Benchmark functions
// declared in the test files of the packages pkgs matches.
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var out []string
	for _, p := range pkgs {
		dir, recursive := strings.CutSuffix(p, "/...")
		err := filepath.WalkDir(filepath.FromSlash(dir), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != filepath.FromSlash(dir) && (!recursive || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				out = append(out, string(m[1]))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("package %s: %v", p, err)
		}
	}
	return out
}
