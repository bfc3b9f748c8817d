package hsm

import "sort"

// Cache is the bounded-bytes staging store: a map of resident object
// extents with one eviction policy deciding who pays when capacity
// runs out. It is pure bookkeeping — no clocks, no I/O — so the tier
// above can price hits and evictions however its transfer model says.
// Like the rest of the serving layer it belongs to one goroutine.
type Cache struct {
	capacity int64
	resident int64
	entries  map[string]*Entry
	policy   Policy
	seq      int64

	evictions    int
	bytesEvicted int64
	writebacks   int
	flushSec     float64
}

// NewCache returns an empty cache of the given byte capacity;
// capacity must be positive (a size-0 cache is "no cache" — the tier
// never constructs one).
func NewCache(capacityBytes int64, policy Policy) *Cache {
	return &Cache{
		capacity: capacityBytes,
		entries:  make(map[string]*Entry),
		policy:   policy,
	}
}

// Resident returns the bytes currently cached.
func (c *Cache) Resident() int64 { return c.resident }

// Len returns the resident entry count.
func (c *Cache) Len() int { return len(c.entries) }

// Capacity returns the byte bound.
func (c *Cache) Capacity() int64 { return c.capacity }

// Free returns the bytes still available before the bound.
func (c *Cache) Free() int64 { return c.capacity - c.resident }

// Contains reports residency without touching recency state — the
// routing tier's probe.
func (c *Cache) Contains(id string) bool {
	_, ok := c.entries[id]
	return ok
}

// Touch records a hit: returns whether the entry is resident, and if
// so refreshes the policy's recency state.
func (c *Cache) Touch(id string) bool {
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	c.policy.Touch(e)
	return true
}

// Install admits the object, evicting per policy until it fits. An
// already-resident object is touched instead (the install refreshes
// it). Objects larger than the whole cache are not admitted. Returns
// whether a new entry was installed.
func (c *Cache) Install(id string, bytes int64, cost float64) bool {
	if c.Touch(id) {
		return false
	}
	if bytes > c.capacity {
		return false
	}
	for c.resident+bytes > c.capacity {
		c.evictOne()
	}
	c.add(id, bytes, cost)
	return true
}

// InstallIfRoom admits the object only when free capacity already
// holds it — the prefetch path: opportunistic installs never evict
// demand-resident data. Returns whether a new entry was installed.
func (c *Cache) InstallIfRoom(id string, bytes int64, cost float64) bool {
	if c.Contains(id) || c.resident+bytes > c.capacity {
		return false
	}
	c.add(id, bytes, cost)
	return true
}

func (c *Cache) add(id string, bytes int64, cost float64) {
	c.seq++
	e := &Entry{ID: id, Bytes: bytes, Cost: cost, Seq: c.seq}
	c.entries[id] = e
	c.resident += bytes
	c.policy.Install(e)
}

// MarkDirty flags a resident entry as write-back data; evicting it —
// or flushing at end of run — will cost a writeback of the entry's
// modeled tape-write time (its Cost). Returns whether the entry was
// resident.
func (c *Cache) MarkDirty(id string) bool {
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	e.Dirty = true
	return true
}

// evictOne removes the policy's victim, charging a writeback first
// when it is dirty.
func (c *Cache) evictOne() {
	e := c.policy.Victim()
	if e.Dirty {
		c.writebacks++
		c.flushSec += e.Cost
	}
	c.policy.Remove(e)
	delete(c.entries, e.ID)
	c.resident -= e.Bytes
	c.evictions++
	c.bytesEvicted += e.Bytes
}

// FlushDirty writes every dirty resident entry back — the end-of-run
// flush — returning the number flushed. Entries stay resident, now
// clean. Dirty entries flush in install order so the float summation
// of their modeled write costs is deterministic.
func (c *Cache) FlushDirty() int {
	var dirty []*Entry
	for _, e := range c.entries {
		if e.Dirty {
			dirty = append(dirty, e)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].Seq < dirty[j].Seq })
	for _, e := range dirty {
		e.Dirty = false
		c.flushSec += e.Cost
	}
	c.writebacks += len(dirty)
	return len(dirty)
}

// Evictions, BytesEvicted, Writebacks and FlushSec report the cache's
// lifetime eviction and write-back accounting.
func (c *Cache) Evictions() int      { return c.evictions }
func (c *Cache) BytesEvicted() int64 { return c.bytesEvicted }
func (c *Cache) Writebacks() int     { return c.writebacks }
func (c *Cache) FlushSec() float64   { return c.flushSec }
