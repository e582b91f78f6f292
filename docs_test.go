package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A fenced block or an inline span (which markdown lets wrap).
	docCode = regexp.MustCompile("(?s)```.*?```|`[^`]*`")
	// TestFoo, BenchmarkFoo/sub (the /sub is left unmatched), FuzzFoo*.
	docFunc    = regexp.MustCompile(`\b((?:Benchmark|Test|Fuzz)[A-Z0-9]\w*)(\*?)`)
	docMake    = regexp.MustCompile(`\bmake\s+([a-z][a-z0-9-]*)`)
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz)\w*)\(`)
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	// ./cmd/x, examples/x/main.go, internal/x/y.go:12 (the :12 is left
	// unmatched), scripts/x.sh; not repro/internal/x or bench/cmd/x.
	docPath = regexp.MustCompile(`(?:^|[^\w/.])(?:\./)?((?:cmd|examples|internal|scripts)(?:/\w[\w.-]*)+)`)
)

// TestDocsCiteWhatExists: every Benchmark*/Test*/Fuzz* name, every
// `make <target>` and every cmd/, examples/, internal/ or scripts/ path
// the documents put in code must exist — as a func in some *_test.go of
// the checkout (the nested bench module included), as a Makefile
// target, or on disk. A trailing * is a prefix match.
func TestDocsCiteWhatExists(t *testing.T) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				funcs[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	hasPrefix := func(prefix string) bool {
		for name := range funcs {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}

	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/THEORY.md", "bench/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range docCode.FindAll(text, -1) {
			for _, m := range docFunc.FindAllSubmatch(code, -1) {
				if name, star := string(m[1]), len(m[2]) > 0; !funcs[name] && !(star && hasPrefix(name)) {
					t.Errorf("%s cites %s%s: no such func in any *_test.go", doc, name, m[2])
				}
			}
			for _, m := range docMake.FindAllSubmatch(code, -1) {
				if !targets[string(m[1])] {
					t.Errorf("%s cites `make %s`: no such Makefile target", doc, m[1])
				}
			}
			for _, m := range docPath.FindAllSubmatch(code, -1) {
				path := strings.TrimRight(string(m[1]), ".")
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s cites %s: no such file or directory", doc, path)
				}
			}
		}
	}
}
