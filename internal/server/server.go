// Package server is the HTTP/JSON service layer over the query engine:
// streamcountd's request handling, live stream ingestion, sync and async
// query admission, standing queries over Server-Sent Events, and graceful
// drain (DESIGN.md §7–§8).
//
// The API is versioned under /v1:
//
//	POST /v1/streams                   create an appendable stream
//	GET  /v1/streams                   list registered streams + registry stats
//	POST /v1/streams/{name}/edges      append a batch of updates
//	GET  /v1/streams/{name}/stats      stream metadata and pass accounting
//	POST /v1/queries                   run a query (sync; ?wait=false async)
//	GET  /v1/queries/{id}              poll an async query
//	POST /v1/watches                   standing query -> SSE event stream
//	GET  /v1/watches                   list active watches
//	GET  /healthz                      liveness (503 while draining)
//
// Every query response carries the stream version its admission generation
// pinned; resubmitting the same query against that prefix reproduces the
// result bit for bit. Watch events additionally derive their seed per
// version (WatchSeedAt), so each event is reproducible standalone from its
// (seed, stream_version) alone.
package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"streamcount"
	"streamcount/internal/cluster"
	"streamcount/internal/stream"
	"streamcount/internal/tenant"
	"streamcount/internal/wire"
)

// maxAsyncQueries bounds the async-query registry: when a new submission
// would exceed it, the oldest completed entries are evicted (their poll
// URLs start returning 404). Still-pending queries are never evicted, so
// a result can only be lost after it was available for at least the time
// it took maxAsyncQueries newer submissions to arrive. Evictions are
// counted and surfaced in GET /v1/streams and /healthz so operators can
// see when clients are losing results.
const maxAsyncQueries = 4096

// maxActiveWatches bounds the standing-query registry. Unlike async
// queries, an active watch cannot be evicted (its SSE connection is live),
// so the bound rejects new watches with 503 instead; rejections are
// counted in the same stats.
const maxActiveWatches = 1024

// maxMaxWatches rejects absurd watch-registry bounds at startup, mirroring
// the checkpoint-cache validation: a mistyped flag fails loudly.
const maxMaxWatches = 1 << 20

// DefaultWatchHeartbeat is the default SSE heartbeat interval: a comment
// line keeps idle watch connections alive through proxies and lets clients
// distinguish "no new versions" from a dead connection.
const DefaultWatchHeartbeat = 15 * time.Second

// DefaultWatchWriteTimeout is the default per-write deadline on SSE watch
// streams: a connection that cannot accept an event within it is treated as
// dead and the watch is ended with a terminal "slow_consumer" event, so one
// stuck client cannot pin a watch goroutine (and a registry slot) forever.
const DefaultWatchWriteTimeout = 15 * time.Second

// maxAppendDedup bounds the idempotency-key registry. Completed receipts
// are evicted oldest-first past the bound; in-flight entries are never
// evicted.
const maxAppendDedup = 1 << 16

// DefaultWatchCheckpointMB is the default bound, in MiB, on the engine's
// watch checkpoint cache — the resident per-stream indexes behind the
// standing queries' O(Δ) incremental evaluation (DESIGN.md §10).
const DefaultWatchCheckpointMB = 64

// maxWatchCheckpointMB rejects absurd cache bounds at startup (1 TiB; far
// beyond any deployment this daemon targets), so a mistyped flag fails
// loudly instead of silently committing the process to an impossible
// budget.
const maxWatchCheckpointMB = 1 << 20

// maxResultCacheMB rejects absurd result-cache bounds at startup (1 TiB),
// mirroring the checkpoint-cache validation: a mistyped flag fails loudly.
const maxResultCacheMB = 1 << 20

// DefaultStreamN is the vertex-range of the default stream the server
// creates when no engine is supplied. Clients normally create their own
// named streams with an exact vertex count; the default stream exists so
// the engine has a lane from birth.
const DefaultStreamN = 1 << 20

// Options configures New.
type Options struct {
	// Engine, when non-nil, is served as-is (its registered streams become
	// queryable immediately, and Close leaves it open — the caller owns it).
	// When nil, New creates an engine over an empty appendable default
	// stream and Close closes it.
	Engine *streamcount.Engine
	// Window is the admission window of the engine New creates. Ignored
	// when Engine is supplied.
	Window time.Duration
	// Parallelism is the per-query pass-engine worker bound applied to
	// queries that do not set their own. 0 selects GOMAXPROCS.
	Parallelism int
	// SegmentDir, when set, file-backs created streams: stream {name}
	// flushes sealed segments under SegmentDir/{name}.
	SegmentDir string
	// SegmentSize overrides the per-stream segment size (0: the stream
	// package default).
	SegmentSize int
	// WatchHeartbeat is the SSE heartbeat interval for standing queries
	// (0: DefaultWatchHeartbeat).
	WatchHeartbeat time.Duration
	// WatchWriteTimeout is the per-write deadline on SSE watch streams
	// (0: DefaultWatchWriteTimeout). Negative disables the deadline.
	WatchWriteTimeout time.Duration
	// WatchCheckpointMB bounds the engine's watch checkpoint cache in MiB
	// (0: DefaultWatchCheckpointMB). Applied to the engine New creates;
	// ignored when Engine is supplied (configure that engine with
	// streamcount.WithWatchCheckpointMB instead). New rejects negative or
	// absurdly large values instead of clamping them.
	WatchCheckpointMB int
	// ResultCacheMB bounds the engine's cross-generation result cache in
	// MiB. 0 leaves the cache disabled (every query replays); applied to the
	// engine New creates, ignored when Engine is supplied (configure that
	// engine with streamcount.WithResultCacheMB instead). New rejects
	// negative or absurdly large values instead of clamping them.
	ResultCacheMB int
	// Tenants configures per-tenant admission control: token-bucket quotas
	// and priority lanes keyed by the X-Tenant request header. The zero
	// Config admits everything (counters are still kept per tenant).
	Tenants tenant.Config
	// Sync makes durable streams fsync the tail segment file on every
	// append, hardening acknowledged appends against machine crashes (not
	// just process kills) at a large throughput cost.
	Sync bool
	// MaxWatches bounds the standing-query registry (0: the default 1024).
	// New rejects negative or absurdly large values instead of clamping.
	MaxWatches int
	// ClusterNode, when set, runs the server as a member of a static
	// cluster under this node ID. ClusterPeers must then list every member
	// (including this node) with its client-reachable address; stream
	// ownership is a pure function of the resulting cluster map
	// (DESIGN.md §11), and requests for streams owned elsewhere are
	// rejected with a typed wrong_node redirect.
	ClusterNode string
	// ClusterPeers is the full static member list (ID + address per node).
	ClusterPeers []wire.ClusterNode
	// ClusterVNodes overrides the virtual nodes per member on the hash
	// ring (0: the cluster package default).
	ClusterVNodes int
	// FS, when non-nil, is the filesystem every durable stream this server
	// creates, recovers, ships or accepts goes through — the seam
	// fault-injection tests use. nil selects the real filesystem.
	FS stream.FS
}

// Server is the HTTP handler for one engine. Create with New, serve with
// net/http, stop with Drain (reject new work, end standing queries with a
// terminal event) followed by Close (wait for async queries, close an
// owned engine).
type Server struct {
	opts      Options
	eng       *streamcount.Engine
	ownEngine bool
	mux       *http.ServeMux

	mu             sync.Mutex
	queries        map[string]*asyncQuery
	queryOrder     []string // insertion order, for bounded retention
	nextID         int64
	pendingQueries int   // async entries still pending
	evictedQueries int64 // completed entries dropped by the retention bound
	watches        map[string]*serverWatch
	nextWatchID    int64
	maxAsync       int // registry bounds; fields so tests can shrink them
	maxWatches     int

	rejectedWatches atomic.Int64

	// tenants is the per-tenant admission-control registry (token buckets,
	// priority lanes, counters). Always non-nil; unconfigured tenants are
	// admit-all but still counted.
	tenants *tenant.Registry

	// cluster is this node's live cluster view; nil in single-node mode.
	cluster *cluster.State
	// transferring marks streams this node is mid-way through shipping to
	// another node (guarded by mu): their mutating requests 503 with a
	// retryable "transferring" code until the ownership flip (or abort).
	transferring map[string]bool

	// createMu serializes stream creation (lookup, disk init, register), so
	// two concurrent creates of one name cannot both touch its segment
	// directory.
	createMu sync.Mutex

	// appends is the Idempotency-Key dedup registry: stream+key -> receipt.
	// Seeded from durable streams' recovered receipts on restart. Guarded by
	// mu; appendOrder tracks insertion for bounded retention (maxDedup is a
	// field so tests can shrink it).
	appends     map[string]*appendDedup
	appendOrder []appendOrderEntry
	maxDedup    int

	// recovering is true from New until every durable stream found under
	// SegmentDir has been rebuilt and registered; POSTs are rejected with
	// 503 + Retry-After until then. ready closes when recovery finishes
	// (recoveryErr then holds any failures).
	recovering  atomic.Bool
	ready       chan struct{}
	recoveryErr error

	draining atomic.Bool
	jobs     sync.WaitGroup
	jobCtx   context.Context
	jobStop  context.CancelFunc

	// watchCtx ends every active watch with a terminal SSE event the moment
	// Drain is called — SSE handlers hold their connections open, and
	// http.Server.Shutdown cannot finish while they do.
	watchCtx  context.Context
	watchStop context.CancelFunc
}

// New builds a server over opts.Engine, or over a fresh engine with an
// empty appendable default stream when none is given. With SegmentDir set,
// streams a previous (possibly killed) process persisted there are
// recovered: the default stream synchronously, named streams on a
// background goroutine — the server answers /healthz as "recovering" and
// rejects POSTs with 503 + Retry-After until WaitReady would return.
func New(opts Options) (*Server, error) {
	// Validate before any engine or disk work: a nonsensical checkpoint
	// bound is an operator error and must fail startup, not be clamped into
	// a configuration nobody asked for.
	ckptMB := opts.WatchCheckpointMB
	switch {
	case ckptMB < 0:
		return nil, fmt.Errorf("server: WatchCheckpointMB %d is negative; the checkpoint cache bound must be positive (0 selects the default %d MiB)", ckptMB, DefaultWatchCheckpointMB)
	case ckptMB > maxWatchCheckpointMB:
		return nil, fmt.Errorf("server: WatchCheckpointMB %d exceeds the %d MiB (1 TiB) sanity bound", ckptMB, maxWatchCheckpointMB)
	case ckptMB == 0:
		ckptMB = DefaultWatchCheckpointMB
	}
	maxW := opts.MaxWatches
	switch {
	case maxW < 0:
		return nil, fmt.Errorf("server: MaxWatches %d is negative; the watch registry bound must be positive (0 selects the default %d)", maxW, maxActiveWatches)
	case maxW > maxMaxWatches:
		return nil, fmt.Errorf("server: MaxWatches %d exceeds the %d sanity bound", maxW, maxMaxWatches)
	case maxW == 0:
		maxW = maxActiveWatches
	}
	switch {
	case opts.ResultCacheMB < 0:
		return nil, fmt.Errorf("server: ResultCacheMB %d is negative; the result cache bound must be positive (0 disables the cache)", opts.ResultCacheMB)
	case opts.ResultCacheMB > maxResultCacheMB:
		return nil, fmt.Errorf("server: ResultCacheMB %d exceeds the %d MiB (1 TiB) sanity bound", opts.ResultCacheMB, maxResultCacheMB)
	}
	clusterState, err := newCluster(opts)
	if err != nil {
		return nil, err
	}
	eng := opts.Engine
	own := false
	if eng == nil {
		def, err := openOrCreateStream(opts, "_default", DefaultStreamN, opts.SegmentSize)
		if err != nil {
			return nil, fmt.Errorf("server: default stream: %w", err)
		}
		eng = streamcount.NewEngine(def,
			streamcount.WithAdmissionWindow(opts.Window),
			streamcount.WithWatchCheckpointMB(ckptMB),
			streamcount.WithResultCacheMB(opts.ResultCacheMB))
		own = true
	}
	jobCtx, jobStop := context.WithCancel(context.Background())
	watchCtx, watchStop := context.WithCancel(context.Background())
	s := &Server{
		opts:         opts,
		eng:          eng,
		ownEngine:    own,
		mux:          http.NewServeMux(),
		queries:      make(map[string]*asyncQuery),
		watches:      make(map[string]*serverWatch),
		appends:      make(map[string]*appendDedup),
		cluster:      clusterState,
		tenants:      tenant.NewRegistry(opts.Tenants),
		transferring: make(map[string]bool),
		maxAsync:     maxAsyncQueries,
		maxWatches:   maxW,
		maxDedup:     maxAppendDedup,
		ready:        make(chan struct{}),
		jobCtx:       jobCtx,
		jobStop:      jobStop,
		watchCtx:     watchCtx,
		watchStop:    watchStop,
	}
	if opts.SegmentDir != "" {
		s.recovering.Store(true)
		go s.recoverStreams()
	} else {
		close(s.ready) // nothing durable: born ready
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/streams", s.handleCreateStream)
	s.mux.HandleFunc("GET /v1/streams", s.handleListStreams)
	s.mux.HandleFunc("POST /v1/streams/{name}/edges", s.handleAppend)
	s.mux.HandleFunc("GET /v1/streams/{name}/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/queries", s.handleQuery)
	s.mux.HandleFunc("GET /v1/queries/{id}", s.handleQueryStatus)
	s.mux.HandleFunc("POST /v1/watches", s.handleWatch)
	s.mux.HandleFunc("GET /v1/watches", s.handleListWatches)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("POST /v1/cluster/map", s.handleClusterMapPush)
	s.mux.HandleFunc("POST /v1/cluster/transfer", s.handleTransfer)
	s.mux.HandleFunc("POST /v1/cluster/accept", s.handleTransferAccept)
	return s, nil
}

// segmentDir returns the per-stream segment directory, or "" when disk
// backing is off.
func segmentDir(base, name string) string {
	if base == "" {
		return ""
	}
	return filepath.Join(base, name)
}

// openOrCreateStream recovers the named stream from its segment directory
// when one exists there, and creates a fresh stream otherwise. A directory
// that exists but fails recovery (corrupt manifest, contradicted segments)
// is a hard error — serving a fresh empty stream over damaged data would
// silently lose it.
func openOrCreateStream(opts Options, name string, n int64, size int) (*streamcount.AppendableStream, error) {
	dir := segmentDir(opts.SegmentDir, name)
	if dir != "" {
		st, err := streamcount.OpenAppendableStream(dir, streamcount.AppendableOptions{Sync: opts.Sync, FS: opts.FS})
		if err == nil {
			return st, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	return streamcount.NewAppendableStream(n, streamcount.AppendableOptions{
		SegmentSize: size,
		Dir:         dir,
		Sync:        opts.Sync,
		FS:          opts.FS,
	})
}

// recoverStreams rebuilds every named stream persisted under SegmentDir and
// flips the server ready. Runs once, on its own goroutine, from New.
func (s *Server) recoverStreams() {
	defer func() {
		s.recovering.Store(false)
		close(s.ready)
	}()
	if s.opts.SegmentDir == "" {
		return
	}
	entries, err := os.ReadDir(s.opts.SegmentDir)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.recoveryErr = fmt.Errorf("server: recovery: %w", err)
		}
		return
	}
	var errs []error
	registered := make(map[string]bool)
	for _, name := range s.eng.Streams() {
		registered[name] = true
	}
	for _, ent := range entries {
		name := ent.Name()
		// Only directories that are valid stream names can have been written
		// by a previous server; "_default" was recovered synchronously in New.
		if !ent.IsDir() || !validStreamName(name) || registered[name] {
			continue
		}
		st, err := streamcount.OpenAppendableStream(segmentDir(s.opts.SegmentDir, name), streamcount.AppendableOptions{Sync: s.opts.Sync, FS: s.opts.FS})
		if err != nil {
			errs = append(errs, fmt.Errorf("server: recovering stream %q: %w", name, err))
			continue
		}
		if err := s.eng.RegisterStream(name, st); err != nil {
			errs = append(errs, fmt.Errorf("server: recovering stream %q: %w", name, err))
			continue
		}
		s.seedReceipts(name, st)
	}
	s.recoveryErr = errors.Join(errs...)
}

// seedReceipts preloads the Idempotency-Key registry with the receipts a
// recovered stream journaled alongside its log: exactly the keyed appends
// whose batches survived the kill. A client retrying an append that a dead
// process acknowledged (or durably applied without managing to answer) gets
// the original receipt back instead of double-ingesting the batch.
func (s *Server) seedReceipts(name string, st *streamcount.AppendableStream) {
	recs := st.Receipts()
	if len(recs) == 0 {
		return
	}
	done := make(chan struct{})
	close(done) // recovered receipts are completed by construction
	s.mu.Lock()
	for _, r := range recs {
		key := name + "\x00" + r.Key
		d := &appendDedup{done: done, resp: wire.AppendResponse{Version: r.Version, Appended: r.Count}, ok: true}
		// A key can recur in the journal (a retry after a rolled-back partial
		// batch): the latest receipt wins, and the superseded order entry is
		// skipped by eviction's pointer check.
		s.appends[key] = d
		s.appendOrder = append(s.appendOrder, appendOrderEntry{key: key, d: d})
	}
	s.evictAppendsLocked()
	s.mu.Unlock()
}

// WaitReady blocks until recovery has finished (every durable stream found
// under SegmentDir rebuilt and registered) or ctx expires. It returns the
// recovery failures, if any: a non-nil error means some persisted stream
// could NOT be rebuilt — the server still serves the healthy ones, and the
// caller decides whether that is fatal.
func (s *Server) WaitReady(ctx context.Context) error {
	select {
	case <-s.ready:
		return s.recoveryErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Engine returns the engine the server fronts.
func (s *Server) Engine() *streamcount.Engine { return s.eng }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain flips the server into drain mode: ingestion and new queries are
// rejected with 503 (and healthz fails, so load balancers stop routing
// here) while already-admitted work keeps running, and every standing
// query is ended with a terminal "draining" event so SSE connections close
// and http.Server.Shutdown can complete. Drain before Close for a graceful
// stop.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.watchStop()
}

// Close completes shutdown: it drains (idempotently), waits for in-flight
// async queries until ctx expires — past the deadline the remaining ones
// are canceled and fail with ErrCanceled — and closes the engine when the
// server owns it. In-flight sync requests are the HTTP server's to wait
// for (http.Server.Shutdown does exactly that); call Close after it
// returns.
func (s *Server) Close(ctx context.Context) error {
	s.Drain()
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Abandon the stragglers: cancel their submit contexts so the
		// engine unwinds them at the next round boundary.
		s.jobStop()
		<-done
		err = fmt.Errorf("server: close deadline exceeded, %w", ctx.Err())
	}
	s.jobStop()
	if s.ownEngine {
		if cerr := s.eng.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// statusFor maps the library's typed sentinels to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, streamcount.ErrUnknownStream):
		return http.StatusNotFound
	case errors.Is(err, streamcount.ErrNotAppendable):
		return http.StatusConflict
	case errors.Is(err, streamcount.ErrBadPattern), errors.Is(err, streamcount.ErrBadConfig):
		return http.StatusBadRequest
	case errors.Is(err, streamcount.ErrQuotaExhausted):
		return http.StatusTooManyRequests
	case errors.Is(err, streamcount.ErrEngineClosed), errors.Is(err, streamcount.ErrCanceled),
		errors.Is(err, streamcount.ErrWatchClosed), errors.Is(err, streamcount.ErrReceiptFailed),
		errors.Is(err, streamcount.ErrSealed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
