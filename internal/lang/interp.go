package lang

import (
	"fmt"
	"io"
	"os"

	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/replicating"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Interp is a session of the database programming language: global
// bindings, declared type abbreviations, and the attached persistence
// stores. Successive Run calls share state, so it serves both as a script
// runner and as the engine behind the REPL.
type Interp struct {
	Out io.Writer
	// Replicating, when set, backs the extern/intern builtins.
	Replicating *replicating.Store
	// Intrinsic, when set, backs `persistent` declarations and the
	// commit/abort builtins.
	Intrinsic *intrinsic.Store

	globals         map[string]value.Value
	globalTypes     map[string]types.Type
	abbrevs         map[string]types.Type
	persistentNames map[string]bool
	refines         map[string]refineEntry
	rebound         map[string]bool
	depth           int
}

// New returns a fresh interpreter writing program output to out (default
// os.Stdout).
func New(out io.Writer) *Interp {
	if out == nil {
		out = os.Stdout
	}
	in := &Interp{
		Out:             out,
		globals:         map[string]value.Value{},
		globalTypes:     map[string]types.Type{},
		abbrevs:         map[string]types.Type{},
		persistentNames: map[string]bool{},
	}
	in.refines = map[string]refineEntry{}
	in.rebound = map[string]bool{}
	for _, b := range builtins() {
		in.globals[b.Name] = b
		in.globalTypes[b.Name] = b.Type
		if b.Refine != nil {
			in.refines[b.Name] = refineEntry{declared: b.Type, fn: b.Refine}
		}
	}
	return in
}

// Result is the outcome of one top-level declaration.
type Result struct {
	Name  string     // bound name, if any
	Type  types.Type // static type (nil for type declarations)
	Value value.Value
}

// String renders the result REPL-style.
func (r Result) String() string {
	if r.Type == nil {
		return fmt.Sprintf("type %s defined", r.Name)
	}
	if r.Name != "" {
		return fmt.Sprintf("%s : %s = %s", r.Name, r.Type, r.Value)
	}
	return fmt.Sprintf("%s : %s", r.Value, r.Type)
}

// Run type-checks and evaluates a program, returning one Result per
// declaration. The program is checked in full before anything is
// evaluated — static checking first, as the paper requires.
func (in *Interp) Run(src string) ([]Result, error) {
	decls, err := Parse(src, in.abbrevs)
	if err != nil {
		return nil, err
	}
	// Static checking pass. The checker mutates its globals map, so give
	// it a copy seeded from the current session.
	ck := &checker{globals: map[string]types.Type{}, refines: in.refines, rebound: in.rebound}
	for k, v := range in.globalTypes {
		ck.globals[k] = v
	}
	type checked struct {
		decl Decl
		name string
		typ  types.Type
	}
	var plan []checked
	for _, d := range decls {
		name, typ, err := ck.checkDecl(d)
		if err != nil {
			return nil, err
		}
		plan = append(plan, checked{decl: d, name: name, typ: typ})
	}

	// Evaluation pass.
	var results []Result
	for _, c := range plan {
		switch dd := c.decl.(type) {
		case *DType:
			results = append(results, Result{Name: dd.Name})
		case *DLet:
			v, err := in.eval(nil, nil, dd.Init)
			if err != nil {
				return results, err
			}
			in.globals[dd.Name] = v
			in.globalTypes[dd.Name] = c.typ
			results = append(results, Result{Name: dd.Name, Type: c.typ, Value: v})
		case *DPersistent:
			v, err := in.evalPersistent(dd)
			if err != nil {
				return results, err
			}
			in.globals[dd.Name] = v
			in.globalTypes[dd.Name] = c.typ
			in.persistentNames[dd.Name] = true
			results = append(results, Result{Name: dd.Name, Type: c.typ, Value: v})
		case *DExpr:
			v, err := in.eval(nil, nil, dd.X)
			if err != nil {
				return results, err
			}
			results = append(results, Result{Type: c.typ, Value: v})
		}
	}
	return results, nil
}

// evalPersistent implements the paper's handle semantics: if the store
// already holds the handle, it is opened at the declared type (a view when
// the stored type is finer; schema enrichment when merely consistent) and
// the initializer is NOT evaluated. Otherwise the initializer runs once and
// the handle is created.
func (in *Interp) evalPersistent(d *DPersistent) (value.Value, error) {
	if in.Intrinsic == nil {
		return nil, errAt(d.Pos, "run", "persistent declarations require an intrinsic store")
	}
	if _, ok := in.Intrinsic.Root(d.Name); ok {
		v, err := in.Intrinsic.OpenAs(d.Name, d.Ann)
		if err != nil {
			return nil, errAt(d.Pos, "run", "persistent %s: %v", d.Name, err)
		}
		return v, nil
	}
	v, err := in.eval(nil, nil, d.Init)
	if err != nil {
		return nil, err
	}
	if err := in.Intrinsic.Bind(d.Name, v, d.Ann); err != nil {
		return nil, errAt(d.Pos, "run", "persistent %s: %v", d.Name, err)
	}
	return v, nil
}

// Lookup returns a global binding and its static type.
func (in *Interp) Lookup(name string) (value.Value, types.Type, bool) {
	v, ok := in.globals[name]
	if !ok {
		return nil, nil, false
	}
	return v, in.globalTypes[name], true
}
