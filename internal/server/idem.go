package server

// idemCache is the bounded LRU of *applied* write ids: idempotency key →
// the per-op existed results the commit group produced. A write is
// recorded only after its commit group is durable, so a dedup hit means
// "this exact group is already on disk" and the retried frame must be
// acknowledged with the original result rather than applied again — the
// exactly-once half of the client's retry contract. Failed commits are
// deliberately not recorded: their retry must re-execute.
//
// The cache is guarded by Server.commitMu (lookups and inserts happen
// only inside the commit path), so it needs no lock of its own. The bound
// is a window, not a ledger: a retry arriving after the key has been
// evicted (capacity × intervening writes later) re-applies. The client's
// retry budget (seconds) is many orders of magnitude shorter than the
// time it takes realistic traffic to push a key through a 4096-entry
// window, and PUT/DELETE re-application is idempotent at the state level
// anyway — the window exists so DELETE's existed bit and the log's
// group count stay exact across the retries that can actually happen.
//
// The LRU order is a doubly linked list threaded through an array of
// slots by index, so a write recorded costs no allocation of its own once
// the array has grown to the capacity: the slot of the evicted key takes
// the new one.
type idemCache struct {
	cap   int
	slots []idemSlot       // grown up to cap, then reused
	m     map[string]int32 // key → index of its slot
	// head and tail are the most and the least recently applied slots,
	// -1 while the cache is empty.
	head, tail int32
}

// idemSlot is one recorded write, linked to its neighbours in LRU order
// (-1 at either end).
type idemSlot struct {
	key        string
	existed    []bool
	prev, next int32
}

func newIdemCache(capacity int) *idemCache {
	return &idemCache{cap: capacity, m: make(map[string]int32, capacity), head: -1, tail: -1}
}

// get reports whether key was already applied, promoting it on a hit.
func (c *idemCache) get(key string) ([]bool, bool) {
	if c == nil {
		return nil, false
	}
	i, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.toFront(i)
	return c.slots[i].existed, true
}

// put records an applied write, evicting the least recently used entry
// past capacity.
func (c *idemCache) put(key string, existed []bool) {
	if c == nil {
		return
	}
	if i, ok := c.m[key]; ok {
		c.toFront(i)
		c.slots[i].existed = existed
		return
	}
	var i int32
	if len(c.slots) < c.cap {
		i = int32(len(c.slots))
		c.slots = append(c.slots, idemSlot{prev: -1, next: -1})
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.m, c.slots[i].key)
	}
	c.slots[i].key, c.slots[i].existed = key, existed
	c.m[key] = i
	c.pushFront(i)
}

// toFront makes slot i the most recently used.
func (c *idemCache) toFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// unlink takes slot i out of the LRU list.
func (c *idemCache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

// pushFront links the unlinked slot i in as the most recently used.
func (c *idemCache) pushFront(i int32) {
	c.slots[i].next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// len reports the number of recorded write ids (tests).
func (c *idemCache) len() int {
	if c == nil {
		return 0
	}
	return len(c.m)
}
