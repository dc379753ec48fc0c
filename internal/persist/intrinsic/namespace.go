package intrinsic

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// The paper, on intrinsic persistence: "we have implicitly assumed a single
// global name space. Although it is global to the program, is it also
// global to the user, the user community…? In practice one needs to operate
// with multiple name spaces and control the sharing of structures among
// name spaces." This file provides that: named views of one store whose
// handles are isolated from each other, with explicit operations that
// either *share* a structure with another namespace (both see updates) or
// *copy* it (isolated replicas). Sharing across namespaces survives commit
// and reopen because the underlying heap is OID-based.

// nsSep separates a namespace name from a handle name in the store's flat
// root table.
const nsSep = "/"

// ErrBadName is returned for handle or namespace names containing the
// namespace separator.
var ErrBadName = errors.New("intrinsic: name must not contain '/'")

// Namespace is a view of a store: all handles bound through it are
// invisible to other namespaces (and to the unqualified root-level API
// names, which live in the anonymous namespace).
type Namespace struct {
	s      *Store
	prefix string // "user1/" — empty for the anonymous namespace
}

// Namespace returns the named namespace view. The empty string denotes the
// anonymous namespace (the plain Bind/Root/... API).
func (s *Store) Namespace(name string) (*Namespace, error) {
	if strings.Contains(name, nsSep) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if name == "" {
		return &Namespace{s: s}, nil
	}
	return &Namespace{s: s, prefix: name + nsSep}, nil
}

// Namespaces lists the namespace names that currently have at least one
// handle (the anonymous namespace is listed as "" when non-empty).
func (s *Store) Namespaces() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	s.roots.Range(func(n string, _ *dynamic.Dynamic) bool {
		if i := strings.Index(n, nsSep); i >= 0 {
			seen[n[:i]] = true
		} else {
			seen[""] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Name returns the namespace's name ("" for the anonymous namespace).
func (ns *Namespace) Name() string { return strings.TrimSuffix(ns.prefix, nsSep) }

func (ns *Namespace) qualify(name string) (string, error) {
	if strings.Contains(name, nsSep) {
		return "", fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return ns.prefix + name, nil
}

// Bind creates (or replaces) a handle in this namespace.
func (ns *Namespace) Bind(name string, v value.Value, declared types.Type) error {
	q, err := ns.qualify(name)
	if err != nil {
		return err
	}
	return ns.s.Bind(q, v, declared)
}

// Unbind removes a handle from this namespace.
func (ns *Namespace) Unbind(name string) bool {
	q, err := ns.qualify(name)
	if err != nil {
		return false
	}
	return ns.s.Unbind(q)
}

// Root returns a handle of this namespace.
func (ns *Namespace) Root(name string) (*Root, bool) {
	q, err := ns.qualify(name)
	if err != nil {
		return nil, false
	}
	return ns.s.Root(q)
}

// OpenAs opens a handle of this namespace at a (re)declared type, with the
// usual schema-evolution rules.
func (ns *Namespace) OpenAs(name string, want types.Type) (value.Value, error) {
	q, err := ns.qualify(name)
	if err != nil {
		return nil, err
	}
	return ns.s.OpenAs(q, want)
}

// Names lists the handles of this namespace, unqualified and sorted.
func (ns *Namespace) Names() []string {
	var out []string
	for _, n := range ns.s.Names() {
		if ns.prefix == "" {
			if !strings.Contains(n, nsSep) {
				out = append(out, n)
			}
		} else if strings.HasPrefix(n, ns.prefix) {
			out = append(out, strings.TrimPrefix(n, ns.prefix))
		}
	}
	return out
}

// ShareTo binds this namespace's handle into another namespace *sharing the
// same structure*: updates through either namespace are visible through the
// other, across commits and reopens. This is the controlled sharing the
// paper asks for.
func (ns *Namespace) ShareTo(other *Namespace, name string) error {
	r, ok := ns.Root(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoRoot, ns.prefix+name)
	}
	return other.Bind(name, r.Value, r.Declared)
}

// CopyTo binds a *deep copy* of this namespace's handle into another
// namespace: the two namespaces are isolated from each other's updates
// (replication on request, rather than by accident as in the replicating
// store).
func (ns *Namespace) CopyTo(other *Namespace, name string) error {
	r, ok := ns.Root(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoRoot, ns.prefix+name)
	}
	return other.Bind(name, value.Copy(r.Value), r.Declared)
}
