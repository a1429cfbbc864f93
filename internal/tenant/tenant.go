// Package tenant is the multi-tenant admission layer: tenant identity (the
// X-Tenant request header; absent means the default tenant), per-tenant
// token-bucket quotas over the three admission surfaces (queries, appends,
// watch registrations), a per-tenant priority that orders admission inside
// the engine's generation window, and per-tenant admitted/rejected
// accounting for the observability surfaces (DESIGN.md §13).
//
// Quotas are soft real-time token buckets: each surface refills at
// rate/sec up to burst, a request spends one token, and an empty bucket
// rejects with the exact wait until one token exists — the server sends it
// as Retry-After on a typed 429, which the client retry policy honors.
package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// DefaultTenant is the identity of requests that carry no X-Tenant header.
const DefaultTenant = "default"

// Limits configures one tenant. A zero or negative rate leaves that
// surface unlimited; a zero burst defaults to max(1, rate) so a limited
// surface always admits at least one immediate request.
type Limits struct {
	QueryRate   float64 `json:"query_rate,omitempty"`
	QueryBurst  float64 `json:"query_burst,omitempty"`
	AppendRate  float64 `json:"append_rate,omitempty"`
	AppendBurst float64 `json:"append_burst,omitempty"`
	WatchRate   float64 `json:"watch_rate,omitempty"`
	WatchBurst  float64 `json:"watch_burst,omitempty"`
	// Priority orders barrier-generation admission inside the engine's
	// window: higher runs earlier. 0 is the default lane.
	Priority int `json:"priority,omitempty"`
}

// Config is the -tenant-config file format: per-tenant limits plus an
// optional default applied to tenants not listed (nil: unlimited).
type Config struct {
	Tenants map[string]Limits `json:"tenants,omitempty"`
	Default *Limits           `json:"default,omitempty"`
}

// LoadConfig reads and validates a JSON tenant configuration file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("tenant: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("tenant: parsing %s: %w", path, err)
	}
	return cfg, nil
}

// Decision is one admission verdict. A rejection carries the exact wait
// until the bucket holds one token.
type Decision struct {
	OK         bool
	RetryAfter time.Duration
}

// bucket is one token bucket. rate<=0 means unlimited.
type bucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate, burst float64, now time.Time) *bucket {
	if rate <= 0 {
		return &bucket{}
	}
	if burst <= 0 {
		burst = rate
		if burst < 1 {
			burst = 1
		}
	}
	return &bucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take spends one token, refilling first. Caller holds the registry lock.
func (b *bucket) take(now time.Time) Decision {
	if b.rate <= 0 {
		return Decision{OK: true}
	}
	b.tokens += float64(now.Sub(b.last).Seconds() * b.rate)
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return Decision{OK: true}
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return Decision{OK: false, RetryAfter: wait}
}

// state is one tenant's live admission state.
type state struct {
	limits   Limits
	queries  *bucket
	appends  *bucket
	watches  *bucket
	admitted int64
	rejected int64
}

// Stats is one tenant's accounting snapshot.
type Stats struct {
	Tenant   string
	Admitted int64
	Rejected int64
	Priority int
}

// Registry resolves tenants to their buckets and counters. Tenants absent
// from the config materialize on first sight under the Default limits.
type Registry struct {
	cfg Config
	now func() time.Time

	mu      sync.Mutex
	tenants map[string]*state
}

// NewRegistry builds a registry over cfg. An all-zero Config admits
// everything but still attributes per-tenant counters.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg, now: time.Now, tenants: make(map[string]*state)}
}

// Resolve canonicalizes a request's tenant identity: the X-Tenant header
// value, or DefaultTenant when absent.
func Resolve(header string) string {
	if header == "" {
		return DefaultTenant
	}
	return header
}

// lookup materializes the tenant's state. Caller holds r.mu.
func (r *Registry) lookup(name string, now time.Time) *state {
	if st, ok := r.tenants[name]; ok {
		return st
	}
	lim, ok := r.cfg.Tenants[name]
	if !ok && r.cfg.Default != nil {
		lim = *r.cfg.Default
	}
	st := &state{
		limits:  lim,
		queries: newBucket(lim.QueryRate, lim.QueryBurst, now),
		appends: newBucket(lim.AppendRate, lim.AppendBurst, now),
		watches: newBucket(lim.WatchRate, lim.WatchBurst, now),
	}
	r.tenants[name] = st
	return st
}

func (r *Registry) admit(name string, pick func(*state) *bucket) Decision {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.lookup(name, now)
	d := pick(st).take(now)
	if d.OK {
		st.admitted++
	} else {
		st.rejected++
	}
	return d
}

// AdmitQuery charges one query admission against the tenant's quota.
func (r *Registry) AdmitQuery(name string) Decision {
	return r.admit(name, func(st *state) *bucket { return st.queries })
}

// AdmitAppend charges one append batch against the tenant's quota.
func (r *Registry) AdmitAppend(name string) Decision {
	return r.admit(name, func(st *state) *bucket { return st.appends })
}

// AdmitWatch charges one watch registration against the tenant's quota.
func (r *Registry) AdmitWatch(name string) Decision {
	return r.admit(name, func(st *state) *bucket { return st.watches })
}

// Priority returns the tenant's admission priority lane.
func (r *Registry) Priority(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(name, r.now()).limits.Priority
}

// Stats snapshots every tenant seen so far, sorted by name.
func (r *Registry) Stats() []Stats {
	r.mu.Lock()
	out := make([]Stats, 0, len(r.tenants))
	for name, st := range r.tenants {
		out = append(out, Stats{
			Tenant: name, Admitted: st.admitted, Rejected: st.rejected,
			Priority: st.limits.Priority,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
