package types

import (
	"fmt"
	"strconv"
	"strings"
)

// Substitute returns t with every free occurrence of the variable named
// param replaced by repl. Bound occurrences (under a binder reusing the same
// name) are left alone; binders whose parameter would capture a free
// variable of repl are alpha-renamed first.
func Substitute(t Type, param string, repl Type) Type {
	return substitute(t, param, repl, FreeVars(repl))
}

func substitute(t Type, param string, repl Type, avoid map[string]bool) Type {
	switch tt := t.(type) {
	case *Basic:
		return tt
	case *Var:
		if tt.Name == param {
			return repl
		}
		return tt
	case *Record:
		fs := make([]Field, tt.Len())
		changed := false
		for i := range fs {
			f := tt.Field(i)
			nt := substitute(f.Type, param, repl, avoid)
			if nt != f.Type {
				changed = true
			}
			fs[i] = Field{Label: f.Label, Type: nt}
		}
		if !changed {
			return tt
		}
		return NewRecord(fs...)
	case *Variant:
		fs := make([]Field, tt.Len())
		changed := false
		for i := range fs {
			f := tt.Tag(i)
			nt := substitute(f.Type, param, repl, avoid)
			if nt != f.Type {
				changed = true
			}
			fs[i] = Field{Label: f.Label, Type: nt}
		}
		if !changed {
			return tt
		}
		return NewVariant(fs...)
	case *List:
		ne := substitute(tt.Elem, param, repl, avoid)
		if ne == tt.Elem {
			return tt
		}
		return NewList(ne)
	case *Set:
		ne := substitute(tt.Elem, param, repl, avoid)
		if ne == tt.Elem {
			return tt
		}
		return NewSet(ne)
	case *Func:
		ps := make([]Type, len(tt.Params))
		changed := false
		for i, p := range tt.Params {
			ps[i] = substitute(p, param, repl, avoid)
			if ps[i] != p {
				changed = true
			}
		}
		nr := substitute(tt.Result, param, repl, avoid)
		if nr != tt.Result {
			changed = true
		}
		if !changed {
			return tt
		}
		return &Func{Params: ps, Result: nr}
	case *Quant:
		bound := substitute(tt.Bound, param, repl, avoid)
		if tt.Param == param {
			// The binder shadows param inside the body.
			if bound == tt.Bound {
				return tt
			}
			return &Quant{kind: tt.kind, Param: tt.Param, Bound: bound, Body: tt.Body}
		}
		p, body := freshen(tt.Param, tt.Body, avoid)
		nb := substitute(body, param, repl, avoid)
		if p == tt.Param && bound == tt.Bound && nb == tt.Body {
			return tt
		}
		return &Quant{kind: tt.kind, Param: p, Bound: bound, Body: nb}
	case *Rec:
		if tt.Param == param {
			return tt
		}
		p, body := freshen(tt.Param, tt.Body, avoid)
		nb := substitute(body, param, repl, avoid)
		if p == tt.Param && nb == tt.Body {
			return tt
		}
		return &Rec{Param: p, Body: nb}
	default:
		panic(fmt.Sprintf("types: substitute: unknown type %T", t))
	}
}

// freshen alpha-renames the binder param within body if param appears in the
// avoid set, returning the (possibly new) parameter name and rewritten body.
func freshen(param string, body Type, avoid map[string]bool) (string, Type) {
	if !avoid[param] {
		return param, body
	}
	n := param
	for i := 1; ; i++ {
		n = param + strconv.Itoa(i)
		if !avoid[n] {
			break
		}
	}
	return n, substitute(body, param, NewVar(n), map[string]bool{})
}

// freshName returns a name based on base that is absent from all the given
// sets. If base itself is absent everywhere it is returned unchanged.
func freshName(base string, avoid ...map[string]bool) string {
	taken := func(n string) bool {
		for _, m := range avoid {
			if m[n] {
				return true
			}
		}
		return false
	}
	if !taken(base) {
		return base
	}
	for i := 1; ; i++ {
		n := base + strconv.Itoa(i)
		if !taken(n) {
			return n
		}
	}
}

// FreeVars returns the set of names of type variables occurring free in t.
func FreeVars(t Type) map[string]bool {
	free := map[string]bool{}
	collectFree(t, map[string]int{}, free)
	return free
}

func collectFree(t Type, bound map[string]int, free map[string]bool) {
	switch tt := t.(type) {
	case *Basic:
	case *Var:
		if bound[tt.Name] == 0 {
			free[tt.Name] = true
		}
	case *Record:
		for i := 0; i < tt.Len(); i++ {
			collectFree(tt.Field(i).Type, bound, free)
		}
	case *Variant:
		for i := 0; i < tt.Len(); i++ {
			collectFree(tt.Tag(i).Type, bound, free)
		}
	case *List:
		collectFree(tt.Elem, bound, free)
	case *Set:
		collectFree(tt.Elem, bound, free)
	case *Func:
		for _, p := range tt.Params {
			collectFree(p, bound, free)
		}
		collectFree(tt.Result, bound, free)
	case *Quant:
		collectFree(tt.Bound, bound, free)
		bound[tt.Param]++
		collectFree(tt.Body, bound, free)
		bound[tt.Param]--
	case *Rec:
		bound[tt.Param]++
		collectFree(tt.Body, bound, free)
		bound[tt.Param]--
	default:
		panic(fmt.Sprintf("types: freeVars: unknown type %T", t))
	}
}

// Key returns a canonical, alpha-invariant string for t: bound variables are
// printed as de Bruijn indices, so alpha-equivalent types share a key. It is
// suitable for use as a map key in caches.
func Key(t Type) string {
	var b strings.Builder
	writeKey(&b, t, nil)
	return b.String()
}

func writeKey(b *strings.Builder, t Type, binders []string) {
	switch tt := t.(type) {
	case *Basic:
		b.WriteString(tt.kind.String())
	case *Var:
		for i := len(binders) - 1; i >= 0; i-- {
			if binders[i] == tt.Name {
				fmt.Fprintf(b, "#%d", len(binders)-1-i)
				return
			}
		}
		b.WriteByte('$')
		b.WriteString(tt.Name)
	case *Record:
		b.WriteByte('{')
		for i := 0; i < tt.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			f := tt.Field(i)
			b.WriteString(f.Label)
			b.WriteByte(':')
			writeKey(b, f.Type, binders)
		}
		b.WriteByte('}')
	case *Variant:
		b.WriteByte('[')
		for i := 0; i < tt.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			f := tt.Tag(i)
			b.WriteString(f.Label)
			b.WriteByte(':')
			writeKey(b, f.Type, binders)
		}
		b.WriteByte(']')
	case *List:
		b.WriteString("L[")
		writeKey(b, tt.Elem, binders)
		b.WriteByte(']')
	case *Set:
		b.WriteString("S[")
		writeKey(b, tt.Elem, binders)
		b.WriteByte(']')
	case *Func:
		b.WriteByte('(')
		for i, p := range tt.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			writeKey(b, p, binders)
		}
		b.WriteString(")->")
		writeKey(b, tt.Result, binders)
	case *Quant:
		if tt.kind == KindForAll {
			b.WriteString("∀<=")
		} else {
			b.WriteString("∃<=")
		}
		writeKey(b, tt.Bound, binders)
		b.WriteByte('.')
		writeKey(b, tt.Body, append(binders, tt.Param))
	case *Rec:
		b.WriteString("µ.")
		writeKey(b, tt.Body, append(binders, tt.Param))
	default:
		panic(fmt.Sprintf("types: key: unknown type %T", t))
	}
}
