package dbpl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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

	eachDocSpan(t, func(doc, span string) {
		for _, m := range citedName.FindAllStringSubmatch(span, -1) {
			name, prefix := m[1], m[2] == "*"
			if !slices.ContainsFunc(defined, func(d string) bool {
				return d == name || prefix && strings.HasPrefix(d, name)
			}) {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, m[0])
			}
		}
	})

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

// eachDocSpan calls f with every backticked span of DESIGN.md, README.md
// and docs/*.md. EXPERIMENTS.md is a dated log that names removed code on
// purpose, so it is not read.
func eachDocSpan(t *testing.T, f func(doc, span string)) {
	t.Helper()
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
			f(doc, spans[i])
		}
	}
}

// citedIdent matches a qualified identifier inside a backticked span: a
// lower-case package name not preceded by a word character, a dot or a
// slash (so neither a path nor a selector's tail), then an exported name
// and an optional member, as in `relation.PlanJoin` or `index.Set.Keep`.
// A file name such as `server.go` names no identifier.
var citedIdent = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)

// TestDocsCiteExistingIdentifiers: every backticked pkg.Name that
// DESIGN.md, README.md and docs/*.md cite, where pkg is the name of a
// package of the root module, names a package-level declaration of such a
// package, and every pkg.Type.Member names a method or field of that type.
// The packages are read with go/parser; the benchmark module is not the
// root module, and main packages are not cited by name.
func TestDocsCiteExistingIdentifiers(t *testing.T) {
	declared := map[string]map[string]bool{} // package name → its names and Type.Member pairs
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		names := declared[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			declared[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
				} else {
					names[receiverName(decl.Recv.List[0].Type)+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									names[spec.Name.Name+"."+n.Name] = true
								}
								if field.Names == nil {
									names[spec.Name.Name+"."+receiverName(field.Type)] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	eachDocSpan(t, func(doc, span string) {
		for _, m := range citedIdent.FindAllStringSubmatch(span, -1) {
			names, ok := declared[m[1]]
			if !ok {
				continue
			}
			cited++
			switch {
			case !names[m[2]]:
				t.Errorf("%s cites %s.%s, which package %s does not declare", doc, m[1], m[2], m[1])
			case m[3] != "" && !names[m[2]+"."+m[3]]:
				t.Errorf("%s cites %s.%s.%s, which is no method or field of %s.%s", doc, m[1], m[2], m[3], m[1], m[2])
			}
		}
	})
	if cited == 0 {
		t.Error("the docs cite no identifier of the root module: the citation pattern matches nothing")
	}
}

// receiverName is the type name of a method receiver or an embedded
// field: T, *T, T[P] or pkg.T.
func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}
