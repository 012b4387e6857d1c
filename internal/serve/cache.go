package serve

import (
	"sort"
	"sync"
	"sync/atomic"

	"barytree/internal/core"
)

// DefaultMaxPlans bounds the plan cache when Config.MaxPlans is zero. A
// cached plan for N particles holds the tree, batches, interaction lists
// and cluster grids — roughly the setup-phase footprint of one solve — so
// the bound is a memory bound, not a correctness knob.
const DefaultMaxPlans = 16

// CacheStats are the plan cache's monotonic counters.
type CacheStats struct {
	// Hits counts GetOrBuild/Get calls that found the key resident
	// (including plans still building — the caller waits, it does not
	// rebuild).
	Hits uint64
	// Misses counts GetOrBuild calls that had to build.
	Misses uint64
	// Builds counts setup phases actually run (== Misses; kept separate so
	// the invariant is checkable from /metrics).
	Builds uint64
	// BuildErrors counts builds that failed; failed keys are removed so a
	// later request retries.
	BuildErrors uint64
	// Evictions counts plans dropped by the LRU bound.
	Evictions uint64
	// Invalidations counts explicit DELETE /v1/plans/{key} removals.
	Invalidations uint64
}

// planEntry is one resident plan: the immutable core.Plan, the charge
// states its solves reuse, and cache bookkeeping. Fields below the comment
// are guarded by the owning cache's mutex.
type planEntry struct {
	// Key is the entry's geometry hash (see GeometryKey).
	Key string

	// ready is closed when plan/err are set; readers that find the entry
	// mid-build wait on it instead of building again (single-flight).
	ready chan struct{}
	plan  *core.Plan
	err   error

	// states recycles ChargeStates across solves on this plan; SetCharges
	// overwrites every charge, so nothing of one request reaches the next.
	states sync.Pool

	// hits counts cache lookups that returned this entry (atomic: read by
	// response snapshots without the cache lock).
	hits atomic.Uint64

	// guarded by PlanCache.mu:
	lastUsed uint64
	building bool
}

// Plan returns the built plan (nil until ready is closed or on build
// error). Callers must have waited on ready.
func (e *planEntry) Plan() *core.Plan { return e.plan }

// PlanCache is a concurrency-safe, LRU-bounded, single-flight cache of
// immutable Plans keyed by geometry hash.
//
// Sharing model: entries hand out *core.Plan pointers that remain valid
// after eviction or invalidation — a Plan is immutable and garbage
// collected, so eviction only severs the key; solves already holding the
// entry finish on it unaffected, and the next request for that key
// rebuilds a fresh entry. Concurrent requests for one missing key build
// exactly once: the first caller runs the setup phase, the rest block on
// the entry's ready channel.
type PlanCache struct {
	mu      sync.Mutex
	max     int
	seq     uint64 // logical LRU clock: bumped per access
	entries map[string]*planEntry
	stats   CacheStats
}

// NewPlanCache returns a cache bounded to max resident plans (max <= 0
// selects DefaultMaxPlans).
func NewPlanCache(max int) *PlanCache {
	if max <= 0 {
		max = DefaultMaxPlans
	}
	return &PlanCache{max: max, entries: make(map[string]*planEntry)}
}

// GetOrBuild returns the entry for key, building it with build() if
// absent. hit reports whether the key was already resident (possibly still
// building — the call then waits for the in-flight build instead of
// duplicating it). On build failure the key is removed so a later call can
// retry, and every waiter receives the same error.
func (c *PlanCache) GetOrBuild(key string, build func() (*core.Plan, error)) (e *planEntry, hit bool, err error) {
	c.mu.Lock()
	c.seq++
	if e, ok := c.entries[key]; ok {
		e.lastUsed = c.seq
		e.hits.Add(1)
		c.stats.Hits++
		c.mu.Unlock()
		<-e.ready
		return e, true, e.err
	}
	c.stats.Misses++
	c.stats.Builds++
	e = &planEntry{Key: key, ready: make(chan struct{}), lastUsed: c.seq, building: true}
	c.entries[key] = e
	c.evictLocked()
	c.mu.Unlock()

	pl, buildErr := build()

	c.mu.Lock()
	e.plan, e.err = pl, buildErr
	e.building = false
	if buildErr != nil {
		// Only remove if the slot still holds this entry (it may already
		// have been invalidated and replaced while building).
		if cur, ok := c.entries[key]; ok && cur == e {
			delete(c.entries, key)
		}
		c.stats.BuildErrors++
	}
	c.mu.Unlock()
	close(e.ready)
	return e, false, buildErr
}

// Get returns the resident entry for key, or nil. It waits out an
// in-flight build; a nil return means the key is not cached (or its build
// failed).
func (c *PlanCache) Get(key string) *planEntry {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.seq++
		e.lastUsed = c.seq
		e.hits.Add(1)
		c.stats.Hits++
	}
	c.mu.Unlock()
	if !ok {
		return nil
	}
	<-e.ready
	if e.err != nil {
		return nil
	}
	return e
}

// Invalidate removes key from the cache, reporting whether it was
// resident. In-flight solves holding the entry complete unaffected; the
// next request for the geometry rebuilds.
func (c *PlanCache) Invalidate(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		return false
	}
	delete(c.entries, key)
	c.stats.Invalidations++
	return true
}

// EntryInfo is a point-in-time snapshot of one cached plan, for the
// listing endpoint.
type EntryInfo struct {
	Key      string
	Hits     uint64
	Building bool
	Targets  int
	Sources  int
	Nodes    int
	Batches  int
}

// List returns snapshots of all resident entries sorted by key (the map
// iteration is unordered; sorting keeps the endpoint deterministic).
func (c *PlanCache) List() []EntryInfo {
	c.mu.Lock()
	infos := make([]EntryInfo, 0, len(c.entries))
	for _, e := range c.entries {
		info := EntryInfo{Key: e.Key, Hits: e.hits.Load(), Building: e.building}
		if !e.building && e.plan != nil {
			info.Targets = e.plan.Batches.Targets.Len()
			info.Sources = e.plan.Sources.Particles.Len()
			info.Nodes = len(e.plan.Sources.Nodes)
			info.Batches = len(e.plan.Batches.Batches)
		}
		infos = append(infos, info)
	}
	c.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos
}

// Stats returns a snapshot of the cache counters and the current size.
func (c *PlanCache) Stats() (CacheStats, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats, len(c.entries)
}

// evictLocked drops least-recently-used ready entries until the cache fits
// its bound. Entries mid-build are never evicted (their builder holds
// them); if everything is building the cache temporarily exceeds the
// bound rather than stall admission.
func (c *PlanCache) evictLocked() {
	for len(c.entries) > c.max {
		var victim *planEntry
		for _, e := range c.entries {
			if e.building {
				continue
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victim.Key)
		c.stats.Evictions++
	}
}
