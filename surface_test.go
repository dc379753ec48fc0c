package dbpl_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"maps"
	"os"
	"path"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// TestExportedSurface: the exported identifiers of internal/ that no
// non-test file of the root module reaches are exactly the lines of
// testdata/surface.txt, and each line states why the identifier is kept:
//
//	tool            a package whose purpose is tests (iofault, netfault)
//	paper <row>     a demonstration that the DESIGN.md row names, by the
//	                identifier's own name or its package's
//	oracle <test>   a reference implementation that the named test, in the
//	                identifier's package, compares against
//	iface           a method that an interface outside the repository
//	                reaches (error's Unwrap, json.Unmarshaler)
//	bench <file>    reached from outside its package only by the named
//	                non-test file of the benchmark module
//
// An identifier nothing reaches is deleted, not listed; a line whose
// identifier is reached or gone is deleted too.
func TestExportedSurface(t *testing.T) {
	files, err := repoSources()
	if err != nil {
		t.Fatal(err)
	}
	surface := exportedSurface(files)
	listed, err := readSurface("testdata/surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(surface))
	for id := range surface {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		l, ok := listed[id]
		switch {
		case !ok && len(surface[id]) > 0:
			t.Errorf("%s is reached from outside its package only by %s: add the line %q to testdata/surface.txt",
				id, strings.Join(surface[id], ", "), id+" bench "+surface[id][0])
		case !ok:
			t.Errorf("%s is reached by no non-test file: delete it, or add a line %q to testdata/surface.txt with one of the reasons tool, paper <row>, oracle <test> or iface",
				id, id+" <reason>")
		default:
			if err := checkReason(id, l.reason, surface[id], string(design)); err != nil {
				t.Errorf("testdata/surface.txt:%d: %s: %v", l.line, id, err)
			}
		}
	}
	for id, l := range listed {
		if _, ok := surface[id]; !ok {
			t.Errorf("testdata/surface.txt:%d: stale line: %s is reached from the root module, or is no longer declared; delete the line", l.line, id)
		}
	}
}

// surfaceLine is one line of testdata/surface.txt: an identifier and the
// words of its reason.
type surfaceLine struct {
	line   int
	reason []string
}

// readSurface reads the identifiers and reasons of a surface file, which
// holds one "id reason..." a line; blank lines and # comments are skipped.
func readSurface(name string) (map[string]surfaceLine, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	listed := map[string]surfaceLine{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		words := strings.Fields(sc.Text())
		if len(words) == 0 || strings.HasPrefix(words[0], "#") {
			continue
		}
		if _, dup := listed[words[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", name, n, words[0])
		}
		listed[words[0]] = surfaceLine{line: n, reason: words[1:]}
	}
	return listed, sc.Err()
}

// checkReason reports what is wrong with the reason of identifier id, or
// nil. bench lists the benchmark module's files that reach id.
func checkReason(id string, reason, bench []string, design string) error {
	dir, member, _ := strings.Cut(strings.TrimPrefix(id, "internal/"), ".")
	dir = "internal/" + dir
	name := member[strings.LastIndex(member, ".")+1:]
	if len(reason) == 0 {
		reason = []string{""}
	}
	args, known := map[string]int{"tool": 0, "iface": 0, "paper": 1, "oracle": 1, "bench": 1}[reason[0]]
	switch {
	case !known:
		return fmt.Errorf("reason %q: want one of tool, paper <row>, oracle <test>, iface or bench <file>", strings.Join(reason, " "))
	case len(reason) != 1+args:
		return fmt.Errorf("reason %q: %s takes %d argument(s)", strings.Join(reason, " "), reason[0], args)
	case len(bench) > 0 && reason[0] != "bench":
		return fmt.Errorf("reason %q, but only %s reaches it: the reason is bench <file>", reason[0], strings.Join(bench, ", "))
	}
	kind, arg := reason[0], reason[len(reason)-1]
	switch kind {
	case "iface":
		if !strings.Contains(member, ".") {
			return fmt.Errorf("iface names a method, and %s is not one", id)
		}
	case "bench":
		if !slices.Contains(bench, arg) {
			return fmt.Errorf("bench %s: that file does not reach it (reached by %q)", arg, bench)
		}
	case "paper":
		row := regexp.MustCompile(`(?m)^\| ` + regexp.QuoteMeta(arg) + ` \|.*$`).FindString(design)
		if row == "" {
			return fmt.Errorf("paper %s: DESIGN.md has no row %s", arg, arg)
		}
		if !regexp.MustCompile(`\b(` + regexp.QuoteMeta(name) + `|` + regexp.QuoteMeta(path.Base(dir)) + `)\b`).MatchString(row) {
			return fmt.Errorf("paper %s: the row names neither %s nor package %s", arg, name, path.Base(dir))
		}
	case "oracle":
		if !testMentions(dir, arg, name) {
			return fmt.Errorf("oracle %s: no _test.go file of %s defines %s and uses %s", arg, dir, arg, name)
		}
	}
	return nil
}

// testMentions reports whether a _test.go file of dir defines test and
// mentions name.
func testMentions(dir, test, name string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	defines := regexp.MustCompile(`(?m)^func ` + regexp.QuoteMeta(test) + `\(`)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(path.Join(dir, e.Name()))
		if err == nil && defines.Match(src) && strings.Contains(string(src), name) {
			return true
		}
	}
	return false
}

// modulePath is the root module's path; the benchmark module, dbpl/bench,
// sits in its bench directory, so a directory d holds package modulePath/d.
const modulePath = "dbpl"

// exportedSurface returns every exported package-level identifier and
// every exported method of a package under internal/ that no non-test file
// of the root module reaches, keyed "dir.Name" or "dir.Type.Method". Its
// value lists the benchmark module's files that reach it, sorted; it is
// empty when nothing reaches it.
//
// A package-level identifier is reached by a use in a non-test file of its
// own package, or by a selector pkg.Name in a file that imports its
// package under the name pkg. A method is reached when any non-test file
// selects its name, through any value, or an interface declares that
// name: methods are matched by name alone, so the match leans toward
// "reached".
func exportedSurface(files []sourceFile) map[string][]string {
	pkgName := map[string]string{} // import path → package name
	for _, sf := range files {
		pkgName[path.Join(modulePath, sf.dir)] = sf.f.Name.Name
	}

	used := map[string]bool{}                  // dir.Name used in its own package
	selected := map[string]bool{}              // dir.Name or method name reached from the root module
	benchReach := map[string]map[string]bool{} // same keys → bench files that reach them
	reach := func(sf sourceFile, key string) {
		if !sf.bench() {
			selected[key] = true
			return
		}
		if benchReach[key] == nil {
			benchReach[key] = map[string]bool{}
		}
		benchReach[key][sf.path] = true
	}
	for _, sf := range files {
		imports := map[string]string{} // local name → directory of a module package
		for _, imp := range sf.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name, ok := pkgName[p]
			if !ok {
				continue
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = strings.TrimPrefix(strings.TrimPrefix(p, modulePath), "/")
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					reach(sf, imports[x.Name]+"."+n.Sel.Name)
				}
				reach(sf, n.Sel.Name)
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						reach(sf, name.Name)
					}
				}
			}
			return true
		})
		if !sf.bench() {
			eachUse(sf.f, func(name string) { used[sf.dir+"."+name] = true })
		}
	}

	surface := map[string][]string{}
	for _, sf := range files {
		if !strings.HasPrefix(sf.dir, "internal/") {
			continue
		}
		eachDecl(sf.f, func(owner, name string, kind declKind) {
			if !ast.IsExported(name) || kind == declField {
				return
			}
			key, id := sf.dir+"."+name, sf.dir+"."+name
			if kind == declMethod {
				key, id = name, sf.dir+"."+owner+"."+name
			}
			if selected[key] || used[key] && benchReach[key] == nil {
				return
			}
			benchFiles := []string{}
			for p := range benchReach[key] {
				benchFiles = append(benchFiles, p)
			}
			slices.Sort(benchFiles)
			surface[id] = benchFiles
		})
	}
	return surface
}

// eachUse calls f with every bare identifier a file uses, except the names
// a declaration declares and uses of a package-level name inside its own
// declaration (a recursive func, a self-referencing type). A selector's
// member, a field name and a parameter name are not uses.
func eachUse(file *ast.File, f func(name string)) {
	var own []string
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			ast.Inspect(n.X, visit)
			return false
		case *ast.Field:
			ast.Inspect(n.Type, visit)
			return false
		case *ast.Ident:
			if !slices.Contains(own, n.Name) {
				f(n.Name)
			}
		}
		return true
	}
	for _, decl := range file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			own = nil
			if decl.Recv == nil {
				own = []string{decl.Name.Name}
			}
			if decl.Recv != nil {
				ast.Inspect(decl.Recv, visit)
			}
			ast.Inspect(decl.Type, visit)
			if decl.Body != nil {
				ast.Inspect(decl.Body, visit)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					own = []string{spec.Name.Name}
					if spec.TypeParams != nil {
						ast.Inspect(spec.TypeParams, visit)
					}
					ast.Inspect(spec.Type, visit)
				case *ast.ValueSpec:
					own = own[:0]
					for _, n := range spec.Names {
						own = append(own, n.Name)
					}
					if spec.Type != nil {
						ast.Inspect(spec.Type, visit)
					}
					for _, v := range spec.Values {
						ast.Inspect(v, visit)
					}
				}
			}
		}
	}
}

// TestExportedSurfaceResolver runs exportedSurface over a small module: a
// package reached through an aliased import, a method reached only
// through an interface, identifiers that only a _test.go file or only the
// benchmark module uses, and a selector of a standard-library package that
// shares the internal package's name.
func TestExportedSurfaceResolver(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/telemetry/trace/trace.go": {Data: []byte(`package trace

type Span struct{}

func (Span) Name() string  { return "" } // an interface declares it
func (Span) End()            {}           // cmd selects it
func (Span) Unread()         {}           // only a test selects it
func New() Span              { return Span{} }
func Start()                 {}           // only runtime/trace.Start is selected
func Recurse()               { Recurse() }
func OnlyTests()             {}
func OnlyBench()             {}
func Helper()                {}
func helper()                { Helper() }
`)},
		"internal/telemetry/trace/trace_test.go": {Data: []byte(`package trace

func use() { OnlyTests(); New().Unread() }
`)},
		"internal/server/server.go": {Data: []byte(`package server

type named interface{ Name() string }
`)},
		"cmd/dbpl/main.go": {Data: []byte(`package main

import (
	"runtime/trace"

	rtrace "dbpl/internal/telemetry/trace"
)

func main() { rtrace.New().End(); trace.Start(nil) }
`)},
		"bench/main.go": {Data: []byte(`package main

import "dbpl/internal/telemetry/trace"

func main() { trace.OnlyBench(); trace.Helper() }
`)},
	}
	files, err := parseSources(fsys)
	if err != nil {
		t.Fatal(err)
	}
	got := exportedSurface(files)
	want := map[string][]string{
		"internal/telemetry/trace.Span.Unread": {},
		"internal/telemetry/trace.Start":       {},
		"internal/telemetry/trace.Recurse":     {},
		"internal/telemetry/trace.OnlyTests":   {},
		"internal/telemetry/trace.OnlyBench":   {"bench/main.go"},
		"internal/telemetry/trace.Helper":      {"bench/main.go"},
	}
	if !maps.EqualFunc(got, want, slices.Equal) {
		t.Errorf("exportedSurface = %v, want %v", got, want)
	}
}
