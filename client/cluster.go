package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"streamcount"
	"streamcount/internal/cluster"
	"streamcount/internal/wire"
)

// maxRouteHops bounds how many times one logical call chases wrong_node
// redirects before giving up. Routing converges in one hop when the cached
// map is merely stale; a second hop covers a transfer racing the retry. A
// loop longer than that means the cluster's maps disagree persistently,
// which is an operator problem a client cannot retry away.
const maxRouteHops = 3

// Cluster is a routing client for a sharded streamcountd deployment. It
// implements the same streamcount.Querier and streamcount.Watcher
// interfaces as Client and *streamcount.Engine, but fetches the cluster
// map (GET /v1/cluster) from its seed nodes, caches it, and sends every
// stream-scoped call — appends, queries, stats, watches — directly to the
// stream's owning node. When a node answers with a wrong_node redirect
// (HTTP 421, e.g. after a transfer the cached map predates), Cluster
// re-routes the identical request to the advertised owner and refreshes
// its map, composing with each per-node Client's retry policy: an append
// keeps its Idempotency-Key across hops, so a re-routed retry is applied
// exactly once, and a watch cut by a transfer reconnects to the new owner
// and resumes after the last delivered version, keeping the transcript
// gap- and duplicate-free.
//
// Cluster is safe for concurrent use.
type Cluster struct {
	opts  []Option
	seeds []string // normalized base URLs, in the caller's order

	mu      sync.Mutex
	m       *cluster.Map       // newest adopted map; nil until first fetch
	clients map[string]*Client // by normalized base URL
}

// NewCluster returns a routing client seeded with one or more node
// addresses (any subset of the cluster; the map fetched from them names
// the rest). Options apply to every per-node client Cluster creates.
func NewCluster(seeds []string, opts ...Option) (*Cluster, error) {
	if len(seeds) == 0 {
		return nil, errors.New("client: cluster needs at least one seed address")
	}
	cl := &Cluster{opts: opts, clients: make(map[string]*Client)}
	for _, s := range seeds {
		c, err := cl.clientFor(s)
		if err != nil {
			return nil, err
		}
		cl.seeds = append(cl.seeds, c.base)
	}
	return cl, nil
}

// normalizeAddr completes a bare host:port (the form cluster maps carry)
// into the http base URL Client requires.
func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		return "http://" + addr
	}
	return addr
}

// clientFor returns the cached per-node client for addr, creating it on
// first use.
func (cl *Cluster) clientFor(addr string) (*Client, error) {
	base := strings.TrimRight(normalizeAddr(addr), "/")
	cl.mu.Lock()
	c, ok := cl.clients[base]
	cl.mu.Unlock()
	if ok {
		return c, nil
	}
	c, err := New(base, cl.opts...)
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	if prior, ok := cl.clients[c.base]; ok {
		c = prior // lost a benign race; keep one client per node
	} else {
		cl.clients[c.base] = c
	}
	cl.mu.Unlock()
	return c, nil
}

// adopt resolves a fetched wire map and installs it if it is newer than
// the cached one (max version wins, same monotone rule the nodes use).
func (cl *Cluster) adopt(w wire.ClusterMap) (*cluster.Map, error) {
	m, err := cluster.FromWire(w)
	if err != nil {
		return nil, fmt.Errorf("client: bad cluster map: %w", err)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.m == nil || m.Version > cl.m.Version {
		cl.m = m
	}
	return cl.m, nil
}

// refreshFrom fetches one node's current map and adopts it.
func (cl *Cluster) refreshFrom(ctx context.Context, c *Client) (*cluster.Map, error) {
	var w wire.ClusterMap
	if err := c.doJSON(ctx, http.MethodGet, "/v1/cluster", nil, &w); err != nil {
		return nil, err
	}
	return cl.adopt(w)
}

// ensureMap returns the cached map, fetching it from the seeds (first one
// that answers wins) on first use.
func (cl *Cluster) ensureMap(ctx context.Context) (*cluster.Map, error) {
	cl.mu.Lock()
	m := cl.m
	cl.mu.Unlock()
	if m != nil {
		return m, nil
	}
	var lastErr error
	for _, seed := range cl.seeds {
		c, err := cl.clientFor(seed)
		if err != nil {
			lastErr = err
			continue
		}
		if m, err = cl.refreshFrom(ctx, c); err == nil {
			return m, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("client: no seed served a cluster map: %w", lastErr)
}

// clearMap drops the cached cluster map, forcing the next resolution to
// refetch from the seeds. Routing uses it after a second consecutive
// wrong_node rejection for the same stream: a redirect loop means the maps
// the rejecting nodes advertise are themselves stale, and adopting them
// (max-version-wins keeps the newest the client has SEEN, not the newest
// that EXISTS) can never escape the loop — only a fresh seed fetch can.
func (cl *Cluster) clearMap() {
	cl.mu.Lock()
	cl.m = nil
	cl.mu.Unlock()
}

// ClusterMap returns the current cluster map in its wire form, fetching it
// on first use. The map is the one routing decisions use, not necessarily
// the newest any node holds.
func (cl *Cluster) ClusterMap(ctx context.Context) (wire.ClusterMap, error) {
	m, err := cl.ensureMap(ctx)
	if err != nil {
		return wire.ClusterMap{}, err
	}
	return m.ToWire(), nil
}

// ownerClient resolves the named stream's owner under the cached map. The
// default stream ("") is node-local on every node and routes to the first
// seed.
func (cl *Cluster) ownerClient(ctx context.Context, stream string) (*Client, error) {
	if stream == "" {
		return cl.clientFor(cl.seeds[0])
	}
	m, err := cl.ensureMap(ctx)
	if err != nil {
		return nil, err
	}
	return cl.clientFor(m.Owner(stream).Addr)
}

// wrongNode extracts the redirect from a wrong_node rejection, or reports
// that err is something else.
func wrongNode(err error) (redirect wire.Error, ok bool) {
	var se *apiStatusError
	if errors.As(err, &se) && se.status == http.StatusMisdirectedRequest {
		return se.api, true
	}
	return wire.Error{}, false
}

// routed runs one stream-scoped call against the stream's owner, chasing
// wrong_node redirects: each 421 names the real owner, so the next hop
// goes straight there (and the rejecting node's map — which already knows
// the new ownership — is adopted best-effort for future calls). Every
// other error, including each per-node client's exhausted retries, returns
// as-is.
func (cl *Cluster) routed(ctx context.Context, stream string, f func(*Client) error) error {
	var nextAddr string
	var err error
	rejections := 0
	for hop := 0; hop < maxRouteHops; hop++ {
		var c *Client
		if nextAddr != "" {
			c, err = cl.clientFor(nextAddr)
		} else {
			c, err = cl.ownerClient(ctx, stream)
		}
		if err != nil {
			return err
		}
		if err = f(c); err == nil {
			return nil
		}
		redirect, isWrongNode := wrongNode(err)
		if !isWrongNode {
			return err
		}
		rejections++
		if rejections >= 2 {
			// Two consecutive wrong_node rejections for one stream: the
			// redirects (and the rejecting nodes' maps) are leading in a
			// circle. Drop the cached map and re-resolve from the seeds,
			// which may hold a genuinely newer map than any node visited.
			cl.clearMap()
			m, merr := cl.ensureMap(ctx)
			if merr != nil {
				return err
			}
			nextAddr = m.Owner(stream).Addr
			continue
		}
		nextAddr = redirect.OwnerAddr
		if m, rerr := cl.refreshFrom(ctx, c); rerr == nil && nextAddr == "" {
			nextAddr = m.Owner(stream).Addr
		}
		if nextAddr == "" {
			return err
		}
	}
	return err
}

// CreateStream creates an appendable stream on its owning node.
func (cl *Cluster) CreateStream(ctx context.Context, name string, n int64) error {
	return cl.routed(ctx, name, func(c *Client) error {
		return c.CreateStream(ctx, name, n)
	})
}

// Streams returns every stream registered across the cluster: the union of
// each member's listing (each node lists only the streams it owns),
// deduplicated and sorted.
func (cl *Cluster) Streams(ctx context.Context) ([]string, error) {
	m, err := cl.ensureMap(ctx)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, n := range m.Nodes {
		c, err := cl.clientFor(n.Addr)
		if err != nil {
			return nil, err
		}
		names, err := c.Streams(ctx)
		if err != nil {
			return nil, fmt.Errorf("client: listing streams on node %q: %w", n.ID, err)
		}
		for _, name := range names {
			seen[name] = true
		}
	}
	all := make([]string, 0, len(seen))
	for name := range seen {
		all = append(all, name)
	}
	sort.Strings(all)
	return all, nil
}

// Append publishes updates to the named stream's owner — the same contract
// as Client.Append, including degraded-durability signaling. One
// Idempotency-Key covers the logical append across every retry and every
// wrong_node hop, so a batch the old owner applied just before the
// ownership flip is recognized as a replay by the new owner (whose receipt
// journal shipped with the stream) instead of being applied twice.
func (cl *Cluster) Append(ctx context.Context, stream string, ups []streamcount.Update) (int64, error) {
	key := newIdempotencyKey()
	var version int64
	err := cl.routed(ctx, stream, func(c *Client) error {
		var e error
		version, e = c.appendKeyed(ctx, stream, key, ups)
		return e
	})
	return version, err
}

// StreamVersion returns the named stream's current version from its owner.
func (cl *Cluster) StreamVersion(ctx context.Context, stream string) (int64, error) {
	var version int64
	err := cl.routed(ctx, stream, func(c *Client) error {
		var e error
		version, e = c.StreamVersion(ctx, stream)
		return e
	})
	return version, err
}

// Submit runs q on the default stream, which is node-local; it executes on
// the first seed. It implements streamcount.Querier.
func (cl *Cluster) Submit(ctx context.Context, q streamcount.Query) (streamcount.Outcome, error) {
	return cl.SubmitOn(ctx, "", q)
}

// SubmitOn runs q against the named stream's owner. The Outcome is
// bit-identical to a local engine's at the same (seed, stream version) —
// routing never touches the query or its result.
func (cl *Cluster) SubmitOn(ctx context.Context, stream string, q streamcount.Query) (streamcount.Outcome, error) {
	out := streamcount.Outcome{Kind: q.Kind()}
	err := cl.routed(ctx, stream, func(c *Client) error {
		var e error
		out, e = c.SubmitOn(ctx, stream, q)
		return e
	})
	return out, err
}

// WatchQuery registers q as a standing query on the named stream's owner,
// implementing streamcount.Watcher with the same self-healing contract as
// Client.WatchQuery — plus re-routing: when the owning node ends the watch
// because the stream is shipping away (terminal code "transferring"), or
// drops it any other retryable way, the subscription reconnects to
// whichever node owns the stream by then and resumes after the last
// delivered version. The combined transcript across a live transfer is
// identical to an uninterrupted watch's.
func (cl *Cluster) WatchQuery(ctx context.Context, stream string, q streamcount.Query, opts ...streamcount.WatchOption) (*streamcount.Subscription[streamcount.Outcome], error) {
	// Every dial, the first and each resume, goes to the stream's current
	// owner through routed. A hop's openWatch already waits out retryable
	// conditions — in particular a stream mid-transfer (503 transferring):
	// either the transfer aborts and the dial succeeds there, or it
	// completes and the next attempt is redirected to the new owner.
	return watchQuery(ctx, stream, q, opts, func(ctx context.Context, req wire.WatchRequest) (*watchConn, error) {
		var conn *watchConn
		err := cl.routed(ctx, stream, func(c *Client) error {
			var e error
			conn, e = c.openWatch(ctx, req)
			return e
		})
		return conn, err
	})
}

// Transfer asks the stream's current owner to ship the stream to the
// target node and flip ownership — the client face of POST
// /v1/cluster/transfer. On success the cached map is refreshed so
// subsequent calls route to the new owner immediately.
func (cl *Cluster) Transfer(ctx context.Context, stream, target string) (wire.TransferResponse, error) {
	var resp wire.TransferResponse
	err := cl.routed(ctx, stream, func(c *Client) error {
		return c.doJSON(ctx, http.MethodPost, "/v1/cluster/transfer",
			wire.TransferRequest{Stream: stream, Target: target}, &resp)
	})
	if err != nil {
		return wire.TransferResponse{}, err
	}
	if c, cerr := cl.ownerClient(ctx, stream); cerr == nil {
		_, _ = cl.refreshFrom(ctx, c)
	}
	return resp, nil
}

// Compile-time interface symmetry with Client and the local engine.
var (
	_ streamcount.Querier = (*Cluster)(nil)
	_ streamcount.Watcher = (*Cluster)(nil)
)
