// Command streamcountd is the streamcount network daemon: an HTTP/JSON
// service over the long-lived query engine, with live append-only
// ingestion. Clients create versioned streams, append edge batches at any
// time, and submit typed queries; concurrent queries share replay passes
// per admission generation, and each generation pins the stream version
// current at its barrier, so every response is bit-identical to a
// standalone run at its reported (seed, stream_version).
//
// API (see internal/server and DESIGN.md §7):
//
//	POST /v1/streams                   {"name":"web","n":100000}
//	POST /v1/streams/{name}/edges      {"updates":[{"u":1,"v":2},...]}
//	POST /v1/queries                   {"stream":"web","kind":"count",
//	                                    "pattern":"triangle","trials":100000,
//	                                    "seed":7}   (?wait=false for async)
//	GET  /v1/queries/{id}              poll an async query
//	POST /v1/watches                   standing query -> SSE event stream
//	GET  /v1/watches                   list active watches
//	GET  /v1/streams/{name}/stats      version, passes, metadata
//	GET  /healthz                      liveness + registry stats (503 draining)
//	GET  /v1/cluster                   versioned cluster map (cluster mode)
//	POST /v1/cluster/transfer          {"stream":"web","target":"n2"}: move a
//	                                   stream to another node (cluster mode)
//
// A watch (POST /v1/watches) holds a Server-Sent-Events response open and
// streams one "result" event per evaluation as ingestion advances — each
// bit-identical to a standalone run at its reported stream_version and the
// derived seed — with heartbeat comments while idle. The client package is
// the Go SDK for all of the above.
//
// A SIGINT/SIGTERM drains gracefully: new work is rejected with 503,
// standing queries end with a terminal "end" event, admitted queries
// finish (bounded by -drain-timeout), then the engine shuts down.
//
// With -segment-dir, streams are durable (DESIGN.md §9): appends persist to
// checksummed segments under a per-stream manifest, and a restart — clean or
// after a crash — rebuilds every stream from disk before serving, truncating
// torn tails and refusing corrupt manifests. During recovery, mutating
// endpoints answer 503 with Retry-After and /healthz reports "recovering".
// -sync additionally fsyncs sealed writes for durability against power loss.
//
// With -result-cache-mb, the engine memoizes completed query results keyed
// by (stream, version, query fingerprint, seed): resubmitting a query a
// pinned generation already answered returns the identical bytes with zero
// stream passes. Appends never invalidate anything — entries are
// version-pinned — so the cache is purely size-bounded (LRU).
// With -tenant-config, requests are attributed to the tenant named by their
// X-Tenant header and admitted through per-tenant token buckets; a tenant
// at quota gets a typed 429 quota_exhausted with Retry-After, and tenant
// priorities order admission inside a shared generation window.
//
// With -cluster-node and -cluster-peers, a static set of daemons shards
// streams by consistent hashing (DESIGN.md §11): stream-scoped requests on
// a non-owner answer a typed 421 wrong_node redirect naming the owner, the
// client package's Cluster routes around them, and POST /v1/cluster/transfer
// rebalances a sealed stream's checksummed segment directory onto another
// node with no version gap and bit-identical results.
//
// Examples:
//
//	streamcountd -addr :8470 -window 25ms
//	streamcountd -segment-dir /var/lib/streamcount -parallel 8
//	streamcountd -segment-dir /var/lib/streamcount -sync
//	streamcountd -addr :8471 -segment-dir /tmp/sc1 -cluster-node n1 \
//	    -cluster-peers n1=localhost:8471,n2=localhost:8472,n3=localhost:8473
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamcount/internal/server"
	"streamcount/internal/tenant"
	"streamcount/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streamcountd: ")
	var (
		addr         = flag.String("addr", ":8470", "listen address")
		window       = flag.Duration("window", 25*time.Millisecond, "admission window: how long an idle engine waits to batch queries into one shared-replay generation")
		parallel     = flag.Int("parallel", 0, "default pass-engine workers per query (0: GOMAXPROCS)")
		segmentDir   = flag.String("segment-dir", "", "directory for on-disk stream segments (empty: streams stay in memory)")
		segmentSize  = flag.Int("segment-size", 0, "updates per stream segment (0: library default)")
		syncWrites   = flag.Bool("sync", false, "fsync stream segments on every sealed write (durable against power loss, not just process crash)")
		readTimeout  = flag.Duration("read-header-timeout", 10*time.Second, "HTTP read-header timeout")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for admitted queries before canceling them")
		heartbeat    = flag.Duration("watch-heartbeat", server.DefaultWatchHeartbeat, "SSE heartbeat interval for standing queries")
		writeTimeout = flag.Duration("watch-write-timeout", server.DefaultWatchWriteTimeout, "per-event SSE write deadline; a watch that cannot accept an event within this ends with a slow_consumer terminal event (<=0: no deadline)")
		checkpointMB = flag.Int("watch-checkpoint-mb", server.DefaultWatchCheckpointMB, "watch checkpoint cache bound in MiB: resident per-stream indexes serving standing queries incrementally (negative or absurd values are rejected at startup)")
		maxWatches   = flag.Int("max-watches", 0, "maximum concurrently active standing queries (0: library default; negative or absurd values are rejected at startup)")
		clusterNode  = flag.String("cluster-node", "", "this node's cluster member ID; enables cluster mode (requires -cluster-peers)")
		clusterPeers = flag.String("cluster-peers", "", "comma-separated cluster members as id=addr pairs (bare addr doubles as the ID); must be identical on every node and include this node")
		rcacheMB     = flag.Int("result-cache-mb", 0, "cross-generation result cache bound in MiB: repeated version-pinned queries are served memoized with zero stream passes (0: disabled)")
		tenantConfig = flag.String("tenant-config", "", "JSON file of per-tenant quotas and priorities (see internal/tenant); empty admits everything")
	)
	flag.Parse()
	peers, err := parsePeers(*clusterPeers)
	if err != nil {
		log.Fatal(err)
	}
	var tenants tenant.Config
	if *tenantConfig != "" {
		if tenants, err = tenant.LoadConfig(*tenantConfig); err != nil {
			log.Fatal(err)
		}
	}
	opts := server.Options{
		Window:            *window,
		Parallelism:       *parallel,
		SegmentDir:        *segmentDir,
		SegmentSize:       *segmentSize,
		Sync:              *syncWrites,
		WatchHeartbeat:    *heartbeat,
		WatchWriteTimeout: *writeTimeout,
		WatchCheckpointMB: *checkpointMB,
		MaxWatches:        *maxWatches,
		ClusterNode:       *clusterNode,
		ClusterPeers:      peers,
		ResultCacheMB:     *rcacheMB,
		Tenants:           tenants,
	}
	if err := run(*addr, *readTimeout, *drainTimeout, opts); err != nil {
		log.Fatal(err)
	}
}

// parsePeers parses the -cluster-peers member list: comma-separated
// "id=addr" pairs, with a bare "addr" doubling as its own ID. Validation
// beyond shape (duplicate IDs, membership of -cluster-node) happens in
// server.New, which owns cluster construction.
func parsePeers(s string) ([]wire.ClusterNode, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var nodes []wire.ClusterNode
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, found := strings.Cut(part, "=")
		if !found {
			id, addr = part, part
		}
		if id == "" || addr == "" {
			return nil, fmt.Errorf("bad -cluster-peers entry %q (want id=addr or addr)", part)
		}
		nodes = append(nodes, wire.ClusterNode{ID: id, Addr: addr})
	}
	return nodes, nil
}

// run owns every resource with a cleanup path, so an error return unwinds
// them (main's log.Fatal would skip deferred cancels — see the lostcancel
// audit note in cmd/streamcount).
func run(addr string, readTimeout, drainTimeout time.Duration, opts server.Options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := server.New(opts)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: readTimeout,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s (admission window %s)", ln.Addr(), opts.Window)
	if opts.ClusterNode != "" {
		log.Printf("cluster node %q (%d members)", opts.ClusterNode, len(opts.ClusterPeers))
	}

	// Recovery from -segment-dir runs in the background; until it finishes
	// the server answers mutations with 503 + Retry-After and /healthz says
	// "recovering". Surface the outcome in the log either way.
	if opts.SegmentDir != "" {
		log.Printf("recovering streams from %s", opts.SegmentDir)
		go func() {
			if err := srv.WaitReady(ctx); err != nil {
				log.Printf("RECOVERY FAILED: %v (persisted streams unavailable; fix %s and restart)", err, opts.SegmentDir)
				return
			}
			log.Printf("recovery complete; serving")
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop routing (healthz 503), reject new work, let the
	// HTTP server finish in-flight requests, then wait out async queries.
	log.Printf("signal received; draining (timeout %s)", drainTimeout)
	srv.Drain()
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Close(dctx); err != nil {
		return err
	}
	log.Printf("drained cleanly")
	return nil
}
