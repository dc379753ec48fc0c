// Package snapshot implements the first and simplest of the paper's three
// forms of persistence: *all-or-nothing* persistence, "commonly used with
// interactive programming languages … achieved by copying a complete core
// image to secondary storage". An Environment is the core image — every
// named binding of the session, volatile scratch structures and database
// alike — and Save/Resume copy it wholesale.
//
// The package exists both as a working persistence mechanism and as the
// baseline whose shortcomings the paper enumerates: no sharing of values
// among programs, no way to separate "the relatively constant structures
// (the database) from the extremely volatile structures such as
// experimental programs", and survival tied to the integrity of the whole
// image. The tests and benchmarks exhibit all three.
package snapshot

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"dbpl/internal/persist/codec"
	"dbpl/internal/value"
)

// ErrCorrupt wraps decoding failures of a snapshot image.
var ErrCorrupt = errors.New("snapshot: corrupt image")

// Environment is an interactive session's complete state: an ordered set of
// named bindings. It is safe for concurrent use.
type Environment struct {
	mu    sync.RWMutex
	binds map[string]value.Value
}

// NewEnvironment returns an empty environment.
func NewEnvironment() *Environment {
	return &Environment{binds: map[string]value.Value{}}
}

// Bind adds or replaces a named binding.
func (e *Environment) Bind(name string, v value.Value) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.binds[name] = v
}

// Lookup returns the named binding.
func (e *Environment) Lookup(name string) (value.Value, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v, ok := e.binds[name]
	return v, ok
}

// Unbind removes a binding, reporting whether it existed.
func (e *Environment) Unbind(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.binds[name]
	delete(e.binds, name)
	return ok
}

// Names returns all binding names in sorted order.
func (e *Environment) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.binds))
	for n := range e.binds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of bindings.
func (e *Environment) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.binds)
}

// Save writes the complete environment — all bindings, with structure
// sharing between them preserved — to w.
func Save(w io.Writer, e *Environment) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	// A stream encoder: one encoder for the whole image keeps sharing
	// across bindings. The image is the count, then each (name, value) pair.
	enc := codec.NewEncoder(w)
	names := make([]string, 0, len(e.binds))
	for n := range e.binds {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := enc.Value(value.Int(int64(len(names)))); err != nil {
		return err
	}
	for _, n := range names {
		if err := enc.Value(value.String(n)); err != nil {
			return err
		}
		if err := enc.Value(e.binds[n]); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// Resume reads an environment previously written by Save.
func Resume(r io.Reader) (*Environment, error) {
	dec, err := codec.NewDecoder(r) // a stream: references span the bindings
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	nv, err := dec.Value()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	n, ok := nv.(value.Int)
	if !ok || n < 0 {
		return nil, fmt.Errorf("%w: bad binding count", ErrCorrupt)
	}
	env := NewEnvironment()
	for i := int64(0); i < int64(n); i++ {
		name, err := dec.Value()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		s, ok := name.(value.String)
		if !ok {
			return nil, fmt.Errorf("%w: binding name is %T", ErrCorrupt, name)
		}
		v, err := dec.Value()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		env.binds[string(s)] = v
	}
	return env, nil
}
