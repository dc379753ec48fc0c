package server

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestIdemCacheBoundedLRU(t *testing.T) {
	c := newIdemCache(3)
	for i := 0; i < 5; i++ {
		c.put(fmt.Sprintf("k%d", i), []bool{i%2 == 0})
	}
	if c.len() != 3 {
		t.Fatalf("len = %d, want the capacity 3", c.len())
	}
	// The two oldest were evicted.
	for _, k := range []string{"k0", "k1"} {
		if _, ok := c.get(k); ok {
			t.Errorf("evicted key %q still present", k)
		}
	}
	for i := 2; i < 5; i++ {
		got, ok := c.get(fmt.Sprintf("k%d", i))
		if !ok {
			t.Errorf("key k%d missing", i)
			continue
		}
		if len(got) != 1 || got[0] != (i%2 == 0) {
			t.Errorf("k%d = %v, want [%v]", i, got, i%2 == 0)
		}
	}
}

func TestIdemCacheGetPromotes(t *testing.T) {
	c := newIdemCache(2)
	c.put("a", nil)
	c.put("b", nil)
	c.get("a") // promote a over b
	c.put("c", nil)
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction despite a's promotion")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("promoted a was evicted")
	}
}

func TestIdemCacheNilSafe(t *testing.T) {
	var c *idemCache // dedup disabled
	if _, ok := c.get("k"); ok {
		t.Error("nil cache reported a hit")
	}
	c.put("k", nil) // must not panic
	if c.len() != 0 {
		t.Error("nil cache has nonzero len")
	}
}

func TestIdemCachePutSameKeyUpdates(t *testing.T) {
	c := newIdemCache(2)
	c.put("k", []bool{false})
	c.put("k", []bool{true})
	if c.len() != 1 {
		t.Fatalf("len = %d after re-put, want 1", c.len())
	}
	got, ok := c.get("k")
	if !ok || len(got) != 1 || !got[0] {
		t.Errorf("get = %v, %v; want [true]", got, ok)
	}
}

// TestIdemCacheMatchesReferenceLRU drives random gets and puts over a
// small key space through caches of several capacities and checks every
// answer, the length and the eviction order against a slice kept in
// recency order: the array-threaded list must be exactly an LRU.
func TestIdemCacheMatchesReferenceLRU(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		c := newIdemCache(capacity)
		var lru []string // most recent first
		want := map[string]bool{}
		promote := func(k string) {
			lru = slices.DeleteFunc(lru, func(x string) bool { return x == k })
			lru = slices.Insert(lru, 0, k)
		}
		for step := 0; step < 2000; step++ {
			k := fmt.Sprintf("k%d", rng.Intn(2*capacity+2))
			if rng.Intn(2) == 0 {
				got, ok := c.get(k)
				_, held := want[k]
				if ok != held || ok && (len(got) != 1 || got[0] != want[k]) {
					t.Fatalf("cap %d step %d: get(%s) = %v, %v; want held %v", capacity, step, k, got, ok, held)
				}
				if held {
					promote(k)
				}
				continue
			}
			b := rng.Intn(2) == 0
			c.put(k, []bool{b})
			want[k] = b
			promote(k)
			if len(lru) > capacity {
				delete(want, lru[capacity])
				lru = lru[:capacity]
			}
			if c.len() != len(lru) {
				t.Fatalf("cap %d step %d: len %d, want %d", capacity, step, c.len(), len(lru))
			}
		}
	}
}
