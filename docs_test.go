package dbpl_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// citedName matches a test, benchmark, fuzz target or example name inside
// a backticked span of a doc: the prefix, then a character that is not a
// lower-case letter (Go's rule for such names), an optional trailing *
// that makes the name a prefix, and an optional /sub suffix. A bare
// prefix, such as the paper's program `Test`, is not a name.
var citedName = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz|Example)[A-Z0-9_][A-Za-z0-9_]*)(\*?)(?:/\S*)?`)

// definedName matches the declaration of a test, benchmark, fuzz target or
// example in a _test.go file.
var definedName = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)

// TestDocsCiteExistingTests: every test, benchmark, fuzz target or example
// that DESIGN.md, README.md and docs/*.md name in backticks is defined in
// some _test.go file of the repository, the benchmark module included, and
// every fuzz target has a -fuzz= line in the Makefile's fuzz target.
// EXPERIMENTS.md is a dated log that names removed benchmarks on purpose,
// so it is not read.
func TestDocsCiteExistingTests(t *testing.T) {
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedName.FindAllStringSubmatch(string(src), -1) {
			defined = append(defined, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"DESIGN.md", "README.md"}, docs...) {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		spans := strings.Split(string(src), "`")
		for i := 1; i < len(spans); i += 2 {
			for _, m := range citedName.FindAllStringSubmatch(spans[i], -1) {
				name, prefix := m[1], m[2] == "*"
				if !slices.ContainsFunc(defined, func(d string) bool {
					return d == name || prefix && strings.HasPrefix(d, name)
				}) {
					t.Errorf("%s cites %s, which no _test.go file defines", doc, m[0])
				}
			}
		}
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(makefile), "\nfuzz:\n")
	if !ok {
		t.Fatal("the Makefile has no fuzz target")
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	for _, name := range defined {
		if strings.HasPrefix(name, "Fuzz") && !strings.Contains(recipe, "-fuzz="+name+" ") {
			t.Errorf("fuzz target %s has no -fuzz= line in the Makefile's fuzz target", name)
		}
	}
}
