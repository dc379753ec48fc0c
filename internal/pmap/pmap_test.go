package pmap

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// contents reads m back through Range, checking the order on the way.
func contents(t *testing.T, m Map[int]) map[string]int {
	t.Helper()
	got := map[string]int{}
	prev, first := "", true
	m.Range(func(k string, v int) bool {
		if !first && k <= prev {
			t.Errorf("Range out of order: %q after %q", k, prev)
		}
		prev, first = k, false
		got[k] = v
		return true
	})
	return got
}

// checkShape verifies the B+tree invariants: every leaf at one depth,
// separators equal to the least key below them, no empty node, and every
// non-root node within [minItems, width].
func checkShape(t *testing.T, m Map[int]) {
	t.Helper()
	if m.root == nil {
		if m.n != 0 {
			t.Errorf("nil root with Len %d", m.n)
		}
		return
	}
	leafDepth := -1
	var walk func(n *node[int], depth int, root bool) (least string, count int)
	walk = func(n *node[int], depth int, root bool) (string, int) {
		if len(n.items) == 0 || len(n.items) > width || (!root && len(n.items) < minItems) {
			t.Errorf("node of %d items at depth %d", len(n.items), depth)
			return "", 0
		}
		if n.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Errorf("leaves at depths %d and %d", leafDepth, depth)
			}
			return n.items[0].key, len(n.items)
		}
		total := 0
		for _, it := range n.items {
			if it.kid == nil {
				t.Errorf("inner node mixes leaf items at depth %d", depth)
				continue
			}
			least, c := walk(it.kid, depth+1, false)
			if least != it.key {
				t.Errorf("separator %q, least key below it %q", it.key, least)
			}
			total += c
		}
		return n.items[0].key, total
	}
	if _, c := walk(m.root, 0, true); c != m.n {
		t.Errorf("Len %d, %d keys in the tree", m.n, c)
	}
}

func same(t *testing.T, m Map[int], want map[string]int) bool {
	t.Helper()
	checkShape(t, m)
	if m.Len() != len(want) {
		t.Errorf("Len = %d, want %d", m.Len(), len(want))
		return false
	}
	got := contents(t, m)
	for k, v := range want {
		if g, ok := m.Get(k); !ok || g != v {
			t.Errorf("Get(%q) = (%d, %v), want %d", k, g, ok, v)
			return false
		}
		if got[k] != v {
			t.Errorf("Range saw %q = %d, want %d", k, got[k], v)
			return false
		}
	}
	return len(got) == len(want)
}

func key(i int) string { return fmt.Sprintf("k%05d", i) }

// TestQuickAgainstGoMap drives random insert, overwrite and delete
// sequences — from empty and from a one-pass Build, in half the runs with
// owned edits that switch to a new Owner at each snapshot — against a Go
// map, snapshotting versions as it goes. At the end every snapshot must
// still read exactly what it held when taken: the copy-on-write property
// the server's published state relies on.
func TestQuickAgainstGoMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 1 + rng.Intn(3000)
		want := map[string]int{}
		var m Map[int]
		if rng.Intn(2) == 0 { // start from a bulk build
			var keys []string
			var vals []int
			for i := 0; i < universe; i++ {
				if rng.Intn(2) == 0 {
					keys, vals = append(keys, key(i)), append(vals, i)
					want[key(i)] = i
				}
			}
			m = Build(keys, vals)
		}
		type snap struct {
			m    Map[int]
			want map[string]int
		}
		var snaps []snap
		var o *Owner
		if rng.Intn(2) == 0 {
			o = new(Owner)
		}
		for op := 0; op < 4*universe; op++ {
			k := key(rng.Intn(universe))
			if rng.Intn(3) == 0 {
				m = m.DeleteOwned(k, o)
				delete(want, k)
			} else {
				m = m.SetOwned(k, op, o)
				want[k] = op
			}
			if rng.Intn(universe/8+1) == 0 {
				if o != nil {
					o = new(Owner)
				}
				frozen := make(map[string]int, len(want))
				for k, v := range want {
					frozen[k] = v
				}
				snaps = append(snaps, snap{m, frozen})
			}
		}
		if !same(t, m, want) {
			t.Logf("seed %d: final map diverges", seed)
			return false
		}
		for i, s := range snaps {
			if !same(t, s.m, s.want) {
				t.Logf("seed %d: snapshot %d changed after later edits", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteToEmptyAndBack drains a built map in random order and refills
// it, checking the shape at every step.
func TestDeleteToEmptyAndBack(t *testing.T) {
	const n = 2000
	keys, vals := make([]string, n), make([]int, n)
	for i := range keys {
		keys[i], vals[i] = key(i), i
	}
	m := Build(keys, vals)
	want := map[string]int{}
	for i := range keys {
		want[keys[i]] = i
	}
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(n) {
		m = m.Delete(keys[i])
		delete(want, keys[i])
		checkShape(t, m)
	}
	if m.root != nil || m.Len() != 0 {
		t.Fatalf("drained map: root %v, Len %d", m.root, m.Len())
	}
	if d := m.Delete("absent"); d != m {
		t.Error("Delete of an absent key on the empty map is not the identity")
	}
	for _, i := range rng.Perm(n) {
		m = m.Set(keys[i], -i)
		want[keys[i]] = -i
	}
	same(t, m, want)
	if d := m.Delete("absent"); d != m {
		t.Error("Delete of an absent key is not the identity")
	}
}

func TestRangeStopsAndAllocatesNothing(t *testing.T) {
	keys := make([]string, 5000)
	vals := make([]int, len(keys))
	for i := range keys {
		keys[i], vals[i] = key(i), i
	}
	m := Build(keys, vals)
	seen := 0
	m.Range(func(string, int) bool { seen++; return seen < 10 })
	if seen != 10 {
		t.Errorf("Range visited %d keys after f returned false at 10", seen)
	}
	sum := 0
	if a := testing.AllocsPerRun(20, func() {
		m.Range(func(_ string, v int) bool { sum += v; return true })
	}); a != 0 {
		t.Errorf("Range allocates %.1f times per call, want 0", a)
	}
}

func TestBuildRefusesUnsortedKeys(t *testing.T) {
	for _, keys := range [][]string{{"b", "a"}, {"a", "a"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build(%q) did not panic", keys)
				}
			}()
			Build(keys, make([]int, len(keys)))
		}()
	}
}

// TestSetCopiesAPathNotTheTable pins the cost a commit pays: one Set on a
// 64 k-key map allocates a few KiB (one node per level), not a copy of the
// table.
func TestSetCopiesAPathNotTheTable(t *testing.T) {
	const n = 1 << 16
	keys, vals := make([]string, n), make([]int, n)
	for i := range keys {
		keys[i], vals[i] = key(i), i
	}
	m := Build(keys, vals)
	i := 0
	if a := testing.AllocsPerRun(100, func() {
		m = m.Set(keys[i*7919%n], i)
		i++
	}); a > 12 {
		t.Errorf("Set on %d keys allocates %.1f times, want ≤ 12 (two per level)", n, a)
	}
}
