// Package wire defines the JSON data-transfer types of the streamcountd
// HTTP API, shared by the three parties that speak it: the facade (queries
// marshal themselves to their wire form), internal/server (handlers decode
// requests and encode responses), and the public client package (the Go SDK
// round-trips the same structs). One definition per message means the
// local and remote Querier implementations cannot drift apart field by
// field.
package wire

// Error is every non-2xx response body. Code carries the typed sentinel the
// server-side error wrapped, so clients can rehydrate errors.Is semantics
// without string matching; it is empty for plain validation failures.
type Error struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// Owner, OwnerAddr and ClusterVersion accompany CodeWrongNode (HTTP
	// 421): the responding node does not own the requested stream, and
	// redirects the caller to the owner under the responding node's current
	// cluster map version. A routing client re-routes to OwnerAddr and
	// refreshes its cached map when ClusterVersion is newer than its own.
	Owner          string `json:"owner,omitempty"`
	OwnerAddr      string `json:"owner_addr,omitempty"`
	ClusterVersion int64  `json:"cluster_version,omitempty"`
}

// Error codes: the wire names of the facade's typed sentinels.
const (
	CodeUnknownStream = "unknown_stream"
	CodeNotAppendable = "not_appendable"
	CodeBadPattern    = "bad_pattern"
	CodeBadConfig     = "bad_config"
	CodeCanceled      = "canceled"
	CodeEngineClosed  = "engine_closed"
	CodeWatchClosed   = "watch_closed"
	CodeDraining      = "draining"
	// CodeReceiptFailed rejects a keyed append whose idempotency receipt
	// could not be journaled. Nothing was published; sent with 503 so clients
	// retry the identical request under the same key.
	CodeReceiptFailed = "receipt_failed"
	// CodeWatchLimit rejects a new watch because the registry is at
	// capacity: "server busy, retry later" — deliberately NOT a clean-close
	// code, so clients don't mistake it for a completed subscription.
	CodeWatchLimit = "watch_limit"
	// CodeRecovering rejects a mutating request while the server is still
	// rebuilding durable streams after a restart. Sent with 503 +
	// Retry-After; retry the same request (Append retries are idempotent
	// under their Idempotency-Key).
	CodeRecovering = "recovering"
	// CodeSlowConsumer ends a watch whose connection could not accept an
	// event within the server's write deadline: the subscription is dead
	// weight and is cut rather than blocking its goroutine forever.
	// Reconnect with after_version to resume the transcript.
	CodeSlowConsumer = "slow_consumer"
	CodeInternal     = "internal"
	// CodeWrongNode rejects a stream-scoped request on a cluster node that
	// does not own the stream (HTTP 421 Misdirected Request). The Error's
	// Owner/OwnerAddr/ClusterVersion fields point at the owning node; routing
	// clients retry there after refreshing their cached cluster map. The
	// request was not processed, so the identical request (same
	// Idempotency-Key included) is safe to replay against the owner.
	CodeWrongNode = "wrong_node"
	// CodeTransferring rejects a mutating request on a stream that is being
	// shipped to another node. Sent with 503 + Retry-After: the transfer
	// either completes (the retry is answered with wrong_node and re-routed)
	// or aborts (the retry succeeds here).
	CodeTransferring = "transferring"
	// CodeQuotaExhausted rejects a request because the tenant's token bucket
	// for that surface (queries, appends, watch registration) is empty. Sent
	// with 429 + Retry-After; the request was not admitted, so retrying the
	// identical request after the suggested delay is safe.
	CodeQuotaExhausted = "quota_exhausted"
)

// Update is one stream element.
type Update struct {
	// Op is "+"/"insert" (default) or "-"/"delete".
	Op string `json:"op,omitempty"`
	U  int64  `json:"u"`
	V  int64  `json:"v"`
}

// AppendRequest is the body of POST /v1/streams/{name}/edges.
type AppendRequest struct {
	Updates []Update `json:"updates"`
}

// AppendResponse acknowledges an ingested batch.
type AppendResponse struct {
	Version  int64 `json:"version"`
	Appended int   `json:"appended"`
	// Warning is set when the batch was published but could not be evicted
	// to the segment directory (disk trouble): the data is safe and
	// replayable, so the request succeeds, but the operator should look.
	Warning string `json:"warning,omitempty"`
	// Deduped marks a replay of an already-applied append: the request
	// carried an Idempotency-Key the server had seen, so the recorded
	// receipt is returned instead of double-publishing the batch.
	Deduped bool `json:"deduped,omitempty"`
}

// CreateStreamRequest is the body of POST /v1/streams.
type CreateStreamRequest struct {
	// Name identifies the stream in later requests. Required.
	Name string `json:"name"`
	// N is the vertex count (vertices are 0..n-1). Required.
	N int64 `json:"n"`
	// SegmentSize overrides the server's segment size for this stream.
	SegmentSize int `json:"segment_size,omitempty"`
}

// StreamInfo describes one stream (create responses and per-stream stats).
type StreamInfo struct {
	Name       string `json:"name"`
	N          int64  `json:"n"`
	Version    int64  `json:"version"`
	InsertOnly bool   `json:"insert_only"`
	Appendable bool   `json:"appendable"`
	Passes     int64  `json:"passes"`
	// EvictFailures counts failed durability operations (segment seals,
	// tail writes, manifest commits) on the stream's segment directory. A
	// growing value means published data is RAM-pinned or not yet durable;
	// it stops growing once the disk heals and a later append's retry
	// catches up.
	EvictFailures int64 `json:"evict_failures,omitempty"`
}

// QueryStats is the async-query registry's health snapshot.
type QueryStats struct {
	// Active counts registry entries that are still pending.
	Active int `json:"active"`
	// Registered counts all retained entries (pending + completed).
	Registered int `json:"registered"`
	// Evicted counts completed entries dropped by the bounded-registry
	// policy over the server's lifetime: a nonzero, growing value means
	// clients are losing poll results to retention pressure.
	Evicted int64 `json:"evicted"`
	// Capacity is the registry bound: how many async entries this node
	// retains before evicting completed ones. Cluster dashboards read it
	// together with Registered for per-node headroom.
	Capacity int `json:"capacity,omitempty"`
}

// WatchStats is the standing-query registry's health snapshot.
type WatchStats struct {
	// Active counts currently connected watches.
	Active int `json:"active"`
	// Rejected counts watch requests refused because the registry was at
	// capacity.
	Rejected int64 `json:"rejected"`
	// Capacity is the registry bound: how many concurrent watches this node
	// admits before rejecting with watch_limit. Active/Capacity is the
	// node's standing-query headroom.
	Capacity int `json:"capacity,omitempty"`
	// Checkpoints is the engine-wide checkpoint cache behind the watches'
	// O(Δ) incremental evaluation.
	Checkpoints CheckpointStats `json:"checkpoints"`
}

// CheckpointStats is the watch checkpoint cache's aggregate health: how
// standing-query evaluations were served and how much index state is
// resident.
type CheckpointStats struct {
	// Hits counts evaluations served incrementally from a resident index.
	Hits int64 `json:"hits"`
	// Misses counts evaluations that first rebuilt a stream's index from a
	// full replay (cold cache or post-eviction).
	Misses int64 `json:"misses"`
	// Evictions counts resident indexes dropped by the capacity bound.
	Evictions int64 `json:"evictions"`
	// ResidentBytes is the accounted size of all resident indexes.
	ResidentBytes int64 `json:"resident_bytes"`
	// CapacityBytes is the configured cache bound; 0 means disabled.
	CapacityBytes int64 `json:"capacity_bytes"`
	// Spills counts evicted indexes persisted to their stream's segment
	// directory instead of being discarded outright.
	Spills int64 `json:"spills,omitempty"`
	// SpillLoads counts evaluations warmed from a spilled index file where a
	// full replay would otherwise have rebuilt the index from scratch.
	SpillLoads int64 `json:"spill_loads,omitempty"`
}

// ResultCacheStats is the cross-generation result cache's health snapshot:
// how repeated pinned-version queries were served and how much memoized
// state is resident. All zeros (CapacityBytes 0) means the cache is
// disabled.
type ResultCacheStats struct {
	// Hits counts queries served from a memoized result with no stream pass.
	Hits int64 `json:"hits"`
	// Misses counts cacheable queries that ran cold and populated the cache.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the size bound (LRU order).
	Evictions int64 `json:"evictions"`
	// ResidentBytes is the accounted size of all memoized results.
	ResidentBytes int64 `json:"resident_bytes"`
	// CapacityBytes is the configured cache bound; 0 means disabled.
	CapacityBytes int64 `json:"capacity_bytes"`
	// Entries counts resident memoized results.
	Entries int `json:"entries"`
}

// TenantStats is one tenant's admission-control counters.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Admitted counts requests that passed the tenant's token buckets.
	Admitted int64 `json:"admitted"`
	// Rejected counts requests refused with quota_exhausted.
	Rejected int64 `json:"rejected"`
	// Priority is the tenant's admission lane; higher runs first inside a
	// shared generation window.
	Priority int `json:"priority,omitempty"`
}

// StreamsList is the body of GET /v1/streams.
type StreamsList struct {
	Streams []string   `json:"streams"`
	Queries QueryStats `json:"queries"`
	Watches WatchStats `json:"watches"`
	// ResultCache is the node's cross-generation result cache snapshot.
	ResultCache ResultCacheStats `json:"result_cache"`
	// Tenants lists per-tenant admission counters, sorted by tenant name.
	// Empty until a request has named a tenant (or hit the default tenant).
	Tenants []TenantStats `json:"tenants,omitempty"`
	// ClusterVersion is the responding node's cluster map version, so a CLI
	// merging per-node listings can detect and report skew. 0 when the node
	// is not in cluster mode.
	ClusterVersion int64 `json:"cluster_version,omitempty"`
}

// Health is the body of GET /healthz. Status is "ready" (200),
// "recovering" (503 + Retry-After, durable streams still rebuilding), or
// "draining" (503, shutting down).
type Health struct {
	Status  string     `json:"status"`
	Queries QueryStats `json:"queries"`
	Watches WatchStats `json:"watches"`
	// ResultCache is the node's cross-generation result cache snapshot.
	ResultCache ResultCacheStats `json:"result_cache"`
	// Tenants lists per-tenant admission counters, sorted by tenant name.
	Tenants []TenantStats `json:"tenants,omitempty"`
	// EvictFailures sums the per-stream durability failure counters; see
	// StreamInfo.EvictFailures.
	EvictFailures int64 `json:"evict_failures,omitempty"`
}

// Query mirrors the facade's typed query constructors one field per option.
// Zero values mean "unset" and take the same defaults the Go API does
// (ε = 0.1, edge bound = the pinned prefix length), so a JSON query and its
// Go twin derive identical budgets. The facade's query values marshal
// themselves into exactly this shape (minus Stream, which names the target
// and belongs to the request, not the query).
type Query struct {
	// Stream names the target stream ("" is the default stream).
	Stream string `json:"stream,omitempty"`
	// Kind selects the algorithm: "count" (default), "sample", "cliques",
	// "auto" or "distinguish".
	Kind string `json:"kind,omitempty"`
	// Pattern names the target subgraph H for every kind except "cliques":
	// "triangle", "C5", "K4", "S3", "P4", "paw", "diamond", ...
	Pattern string `json:"pattern,omitempty"`
	// R is the clique order for kind "cliques".
	R int `json:"r,omitempty"`
	// Threshold is the decision threshold l for kind "distinguish".
	Threshold float64 `json:"threshold,omitempty"`

	Epsilon     float64 `json:"epsilon,omitempty"`
	Trials      int     `json:"trials,omitempty"`
	LowerBound  float64 `json:"lower_bound,omitempty"`
	EdgeBound   int64   `json:"edge_bound,omitempty"`
	MaxTrials   int     `json:"max_trials,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Parallelism int     `json:"parallelism,omitempty"`
	Lambda      int64   `json:"lambda,omitempty"`
}

// Count is a counting result (count, cliques, auto kinds and the
// distinguish evidence).
type Count struct {
	Value      float64 `json:"value"`
	M          int64   `json:"m"`
	Passes     int64   `json:"passes"`
	Queries    int64   `json:"queries"`
	SpaceWords int64   `json:"space_words"`
	Trials     int     `json:"trials,omitempty"`
}

// Sample is a sampling result.
type Sample struct {
	Found    bool       `json:"found"`
	Vertices []int64    `json:"vertices,omitempty"`
	Edges    [][2]int64 `json:"edges,omitempty"`
	Passes   int64      `json:"passes"`
}

// Decision is a distinguish result.
type Decision struct {
	Above    bool   `json:"above"`
	Estimate *Count `json:"estimate,omitempty"`
}

// QueryResult is a served query: the kind-matching result field is set.
type QueryResult struct {
	Kind string `json:"kind"`
	// Stream and StreamVersion identify the exact prefix the query ran
	// over; the result is a pure function of (query, prefix).
	Stream        string    `json:"stream,omitempty"`
	StreamVersion int64     `json:"stream_version"`
	Count         *Count    `json:"count,omitempty"`
	Sample        *Sample   `json:"sample,omitempty"`
	Decision      *Decision `json:"decision,omitempty"`
}

// AsyncQuery is one ?wait=false submission's poll state.
type AsyncQuery struct {
	ID     string       `json:"id"`
	Status string       `json:"status"`
	Result *QueryResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// Watch policies on the wire.
const (
	PolicyLatest = "latest"
	PolicyEvery  = "every"
)

// WatchRequest is the body of POST /v1/watches: a query plus the standing
// parameters.
type WatchRequest struct {
	Query
	// Policy is "latest" (default: skip to the newest version at each
	// evaluation) or "every" (evaluate every published version in order).
	Policy string `json:"policy,omitempty"`
	// After resumes the watch past an already-observed stream version: no
	// version <= After is evaluated, so a client reconnecting after a
	// dropped connection continues its transcript without gaps or
	// duplicates. 0 watches from the beginning.
	After int64 `json:"after_version,omitempty"`
}

// WatchStarted is the first SSE event ("watch") of an established watch.
type WatchStarted struct {
	ID     string `json:"id"`
	Stream string `json:"stream,omitempty"`
	Policy string `json:"policy"`
}

// WatchEvent is one SSE "result" event: one evaluation of the standing
// query. Generation is the evaluation's index within the watch; Result
// carries the pinned stream version. The result is bit-identical to the
// same query run standalone over that prefix with its seed replaced by
// WatchSeedAt(seed, stream_version).
type WatchEvent struct {
	Generation int64        `json:"generation"`
	Result     *QueryResult `json:"result"`
}

// WatchEnd is the terminal SSE "end" event: every watch ends with one
// (drain, client cancel, engine shutdown, or a failed evaluation).
type WatchEnd struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// WatchInfo describes one active watch in GET /v1/watches.
type WatchInfo struct {
	ID          string `json:"id"`
	Stream      string `json:"stream,omitempty"`
	Kind        string `json:"kind"`
	Pattern     string `json:"pattern,omitempty"`
	R           int    `json:"r,omitempty"`
	Policy      string `json:"policy"`
	Seed        int64  `json:"seed"`
	Events      int64  `json:"events"`
	LastVersion int64  `json:"last_version"`
	// CheckpointHits / CheckpointMisses / ColdReplays report how this watch's
	// evaluations were served: incrementally from a resident checkpoint
	// index, by rebuilding the index first, or by a full cold replay outside
	// the cache (turnstile streams or a disabled cache).
	CheckpointHits   int64 `json:"checkpoint_hits"`
	CheckpointMisses int64 `json:"checkpoint_misses"`
	ColdReplays      int64 `json:"cold_replays"`
}

// WatchList is the body of GET /v1/watches.
type WatchList struct {
	Watches []WatchInfo `json:"watches"`
	Active  int         `json:"active"`
}

// --- cluster mode ---

// ClusterNode is one member of the cluster map.
type ClusterNode struct {
	// ID is the operator-assigned node identity (-cluster-node).
	ID string `json:"id"`
	// Addr is the node's client-reachable base URL.
	Addr string `json:"addr"`
}

// ClusterMap is the body of GET /v1/cluster: the cluster's membership and
// stream-placement state. Placement is a pure function of the map — a
// consistent-hash ring over Nodes with VNodes virtual nodes each, patched
// by Overrides — so any two parties holding the same map agree on every
// stream's owner without coordination. Version orders maps: every
// ownership change bumps it, and all parties adopt the highest version
// they have seen (static membership means maps only ever diverge by
// overrides, so max-version-wins converges).
type ClusterMap struct {
	Version int64 `json:"version"`
	// Self is the responding node's ID (informational; not part of the
	// map's identity).
	Self  string        `json:"self,omitempty"`
	Nodes []ClusterNode `json:"nodes"`
	// VNodes is the number of virtual nodes per member on the hash ring.
	VNodes int `json:"vnodes"`
	// Overrides pins streams to explicit owners (stream name -> node ID),
	// recording transfers that contradict pure ring placement.
	Overrides map[string]string `json:"overrides,omitempty"`
}

// TransferRequest is the body of POST /v1/cluster/transfer: ship the
// stream's segment directory to the target node and flip ownership.
type TransferRequest struct {
	Stream string `json:"stream"`
	// Target is the receiving node's ID.
	Target string `json:"target"`
}

// TransferResponse acknowledges a completed transfer.
type TransferResponse struct {
	Stream string `json:"stream"`
	Target string `json:"target"`
	// StreamVersion is the sealed version that was shipped: the new owner
	// serves exactly this prefix before accepting new appends.
	StreamVersion int64 `json:"stream_version"`
	// ClusterVersion is the map version that records the new ownership.
	ClusterVersion int64 `json:"cluster_version"`
}

// TransferFile is one shipped file of a stream's segment directory. Data
// is base64 in JSON; CRC is a CRC32C over the raw bytes, verified by the
// receiver before anything touches disk (the manifest, segments and
// receipt log carry their own internal checksums on top).
type TransferFile struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
	CRC  uint32 `json:"crc32c"`
}

// TransferPayload is the body of POST /v1/cluster/accept — the internal
// node-to-node leg of a transfer: the sealed stream's complete segment
// directory plus the map the source proposes (version+1, ownership
// override to the receiver). The receiver validates the files by opening
// the directory as a durable stream before committing anything.
type TransferPayload struct {
	Stream string         `json:"stream"`
	Map    ClusterMap     `json:"map"`
	Files  []TransferFile `json:"files"`
}

// TransferAccepted is the accept response: the receiver has durably
// committed the stream, registered it, and adopted the proposed map.
type TransferAccepted struct {
	Stream string `json:"stream"`
	// StreamVersion is the version the receiver recovered from the shipped
	// directory; the source verifies it matches what was sealed.
	StreamVersion int64 `json:"stream_version"`
	// Map is the receiver's (adopted) cluster map.
	Map ClusterMap `json:"map"`
}
