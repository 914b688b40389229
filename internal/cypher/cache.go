package cypher

import (
	"sync"

	"securitykg/internal/graph"
)

// The plan cache is shared per graph.Store: every Engine built over one
// store (API server handlers, prepared statements, ad-hoc shells) reads
// and writes the same cache, so a plan compiled by one engine serves
// them all. Entries are keyed by query text — parameterized statements
// therefore share one entry across all bindings, where literal-spliced
// query strings each miss. The key also carries the engine's UseIndexes
// flag, since it changes which access paths the planner may pick.

// planEntry is a cached plan plus the store stats version it was costed
// against, so plans are re-planned once the planner-visible statistics
// have materially changed or a new index has appeared.
type planEntry struct {
	pl           *Plan
	statsVersion int64
}

const planCacheMax = 512

// planCache is the store-scoped compiled-plan cache. Hits and misses
// are counted so callers can verify reuse (a read-only prepared
// statement run N times against an unchanging store must show N hits
// and one miss; statements that write invalidate their own entry).
type planCache struct {
	mu      sync.Mutex
	entries map[string]planEntry
	hits    int64
	misses  int64
}

// cacheFor returns the store's shared plan cache, creating it on first
// use. Anchoring the cache to the store ties its lifetime to the graph:
// dropping the store drops every cached plan with it.
func cacheFor(s *graph.Store) *planCache {
	return s.QueryCache(func() any {
		return &planCache{entries: make(map[string]planEntry)}
	}).(*planCache)
}

// get returns the cached plan for key if the store's stats version has
// not moved since it was costed. graph.Store.StatsVersion's doc lists
// what moves it; it does not move on every write, so a prepared workload
// over a stable store shape keeps its cache hits. A stale plan is still
// correct (access paths never become invalid); the version only protects
// optimality.
func (c *planCache) get(key string, s *graph.Store) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.entries[key]
	if !ok {
		c.misses++
		mPlanCacheMisses.Inc()
		return nil
	}
	if ent.statsVersion != s.StatsVersion() {
		delete(c.entries, key)
		c.misses++
		mPlanCacheMisses.Inc()
		return nil
	}
	c.hits++
	mPlanCacheHits.Inc()
	return ent.pl
}

func (c *planCache) put(key string, pl *Plan, s *graph.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= planCacheMax {
		for k := range c.entries {
			delete(c.entries, k)
			break
		}
	}
	c.entries[key] = planEntry{pl: pl, statsVersion: s.StatsVersion()}
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

// CacheStats is a snapshot of the store-shared plan cache's counters.
type CacheStats struct {
	Hits    int64 // lookups served by a cached plan (parse+plan skipped)
	Misses  int64 // lookups that required (or will require) a fresh plan
	Entries int
}

// PlanCacheStats reports the shared cache's counters for the engine's
// store. All engines over one store see the same numbers.
func (e *Engine) PlanCacheStats() CacheStats { return e.cache.stats() }

// cacheKey scopes a query text to the option bits that change planning.
func (e *Engine) cacheKey(src string) string {
	if e.opts.UseIndexes {
		return "i\x00" + src
	}
	return "s\x00" + src
}

// cachedPlan returns the shared cache's plan for src, if still valid.
func (e *Engine) cachedPlan(src string) *Plan {
	return e.cache.get(e.cacheKey(src), e.store)
}

func (e *Engine) storePlan(src string, pl *Plan) {
	e.cache.put(e.cacheKey(src), pl, e.store)
}
