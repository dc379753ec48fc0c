package types

import (
	"sync"
	"sync/atomic"
)

// This file implements hash-consed type interning. Intern(t) returns a
// canonical *Interned handle shared by every type alpha-equivalent to t, so
// type equivalence degrades to pointer comparison and the global subtype
// verdict cache can be keyed on handle pairs instead of freshly concatenated
// key strings. The paper observes that a database programming language
// performs "a certain amount of computation at the level of types"; interning
// is what keeps that computation off the Get hot path — internal/index keys
// its maintained extents by interned handle, and memoizes which of them
// answer a query by the query type's handle.

// Interned is the canonical handle of an equivalence class of
// alpha-equivalent types. Two types s and t satisfy Key(s) == Key(t) exactly
// when Intern(s) == Intern(t); the handle carries the canonical key so
// downstream consumers (the maintained extents, the subtype cache) never
// rebuild it.
type Interned struct {
	t   Type
	key string
}

// Type returns the canonical representative of the equivalence class — the
// first type interned with this structure.
func (h *Interned) Type() Type { return h.t }

// Key returns the canonical alpha-invariant key (see Key).
func (h *Interned) Key() string { return h.key }

// String renders the canonical representative.
func (h *Interned) String() string { return h.t.String() }

// internByKey maps canonical keys to their unique handle. It grows with the
// number of distinct type structures seen by the process, like the subtype
// verdict cache.
var internByKey sync.Map // string -> *Interned

// slotted is satisfied by every concrete type in this package: each node
// carries its own handle cache (islot), so Intern on a seen pointer is one
// atomic load with no shared map traffic and no eviction policy.
type slotted interface {
	internSlot() *atomic.Pointer[Interned]
}

// Intern returns the canonical handle for t. The first call on a node pays
// one Key construction; subsequent calls on the same pointer load the handle
// straight off the node, and calls on other pointers with the same structure
// return the same handle via the key table.
func Intern(t Type) *Interned {
	slot, ok := t.(slotted)
	if ok {
		if h := slot.internSlot().Load(); h != nil {
			return h
		}
	}
	k := Key(t)
	fresh := &Interned{t: t, key: k}
	h, _ := internByKey.LoadOrStore(k, fresh)
	in := h.(*Interned)
	if ok {
		slot.internSlot().Store(in)
	}
	return in
}

// Canon returns the canonical representative type of t's equivalence class.
// Persistence decoders route loaded types through Canon so every image of a
// schema shares one in-memory representation (and therefore one entry in
// every type-keyed cache).
func Canon(t Type) Type { return Intern(t).t }

// hashKey is FNV-1a over a string (LabelBit's record labels).
func hashKey(k string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return h
}
