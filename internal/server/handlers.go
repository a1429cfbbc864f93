package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"streamcount"
	"streamcount/internal/stream"
	"streamcount/internal/tenant"
	"streamcount/internal/wire"
)

// maxBodyBytes bounds request bodies. Ingest batches dominate: 1 MiB is
// ~26k updates per request, and clients simply send more batches.
const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to do on error
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, wire.Error{Error: err.Error(), Code: errorCode(err)})
}

// errorCode names the typed sentinel err wraps, so clients can rehydrate
// errors.Is semantics from the wire without string matching. Plain
// validation failures carry no code.
func errorCode(err error) string {
	switch {
	case errors.Is(err, streamcount.ErrUnknownStream):
		return wire.CodeUnknownStream
	case errors.Is(err, streamcount.ErrNotAppendable):
		return wire.CodeNotAppendable
	case errors.Is(err, streamcount.ErrBadPattern):
		return wire.CodeBadPattern
	case errors.Is(err, streamcount.ErrBadConfig):
		return wire.CodeBadConfig
	case errors.Is(err, streamcount.ErrWatchClosed):
		return wire.CodeWatchClosed
	case errors.Is(err, streamcount.ErrEngineClosed):
		return wire.CodeEngineClosed
	case errors.Is(err, streamcount.ErrCanceled):
		return wire.CodeCanceled
	case errors.Is(err, streamcount.ErrReceiptFailed):
		return wire.CodeReceiptFailed
	case errors.Is(err, streamcount.ErrQuotaExhausted):
		return wire.CodeQuotaExhausted
	case errors.Is(err, streamcount.ErrSealed):
		// A sealed stream is one mid-transfer: the condition is transient
		// and the identical request is safe to retry.
		return wire.CodeTransferring
	default:
		return ""
	}
}

// decodeBody strictly decodes a JSON body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// registryStats snapshots the async-query and watch registries for the
// observability surfaces (GET /v1/streams, /healthz).
func (s *Server) registryStats() (wire.QueryStats, wire.WatchStats) {
	s.mu.Lock()
	q := wire.QueryStats{
		Active:     s.pendingQueries,
		Registered: len(s.queries),
		Evicted:    s.evictedQueries,
		Capacity:   s.maxAsync,
	}
	ws := wire.WatchStats{Active: len(s.watches), Capacity: s.maxWatches}
	s.mu.Unlock()
	ws.Rejected = s.rejectedWatches.Load()
	cs := s.eng.WatchCheckpointStats()
	ws.Checkpoints = wire.CheckpointStats{
		Hits:          cs.Hits,
		Misses:        cs.Misses,
		Evictions:     cs.Evictions,
		Spills:        cs.Spills,
		SpillLoads:    cs.SpillLoads,
		ResidentBytes: cs.ResidentBytes,
		CapacityBytes: cs.CapacityBytes,
	}
	return q, ws
}

// resultCacheStats snapshots the engine's cross-generation result cache for
// the observability surfaces. All zeros when the cache is disabled.
func (s *Server) resultCacheStats() wire.ResultCacheStats {
	rc := s.eng.ResultCacheStats()
	return wire.ResultCacheStats{
		Hits:          rc.Hits,
		Misses:        rc.Misses,
		Evictions:     rc.Evictions,
		ResidentBytes: rc.ResidentBytes,
		CapacityBytes: rc.CapacityBytes,
		Entries:       rc.Entries,
	}
}

// tenantStats snapshots the per-tenant admission counters, sorted by tenant
// name. Empty until a request has resolved a tenant.
func (s *Server) tenantStats() []wire.TenantStats {
	ts := s.tenants.Stats()
	if len(ts) == 0 {
		return nil
	}
	out := make([]wire.TenantStats, len(ts))
	for i, t := range ts {
		out[i] = wire.TenantStats{Tenant: t.Tenant, Admitted: t.Admitted, Rejected: t.Rejected, Priority: t.Priority}
	}
	return out
}

// tenantOf resolves the requesting tenant from the X-Tenant header; absent
// means the default tenant.
func (s *Server) tenantOf(r *http.Request) string {
	return tenant.Resolve(r.Header.Get("X-Tenant"))
}

// rejectQuota answers a quota-rejected request: 429 with the typed
// quota_exhausted code and a Retry-After the client retry policy honors
// (whole seconds, rounded up so the bucket has refilled by the retry).
func rejectQuota(w http.ResponseWriter, who string, d tenant.Decision) {
	retry := int64((d.RetryAfter + time.Second - 1) / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
	writeJSON(w, http.StatusTooManyRequests, wire.Error{
		Error: fmt.Sprintf("tenant %q: %s", who, streamcount.ErrQuotaExhausted.Error()),
		Code:  wire.CodeQuotaExhausted,
	})
}

// evictFailures sums the durability-failure counters of every appendable
// stream the engine serves.
func (s *Server) evictFailures() int64 {
	var total int64
	for _, name := range s.eng.Streams() {
		if st, ok := s.eng.Lookup(name); ok {
			if app, ok := st.(*streamcount.AppendableStream); ok {
				total += app.EvictFailures()
			}
		}
	}
	return total
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	q, ws := s.registryStats()
	h := wire.Health{
		Status: "ready", Queries: q, Watches: ws,
		ResultCache:   s.resultCacheStats(),
		Tenants:       s.tenantStats(),
		EvictFailures: s.evictFailures(),
	}
	code := http.StatusOK
	switch {
	case s.draining.Load():
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	case s.recovering.Load():
		h.Status = "recovering"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, h)
}

// --- streams ---

func (s *Server) handleCreateStream(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) || s.rejectRecovering(w) {
		return
	}
	var req wire.CreateStreamRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !validStreamName(req.Name) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("stream name %q must be 1-128 chars of [a-zA-Z0-9_-], not starting with '_'", req.Name))
		return
	}
	if req.N <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("vertex count n=%d must be positive", req.N))
		return
	}
	if s.rejectWrongNode(w, req.Name) {
		return // streams are created on their owner
	}
	// createMu serializes the lookup-create-register sequence: without it,
	// two concurrent creates of the same name could both pass the Lookup
	// check and race NewAppendableStream on the same segment directory —
	// the loser could clobber the winner's initial MANIFEST with a
	// different configuration.
	s.createMu.Lock()
	defer s.createMu.Unlock()
	// Duplicate names must conflict before any disk work: with a segment
	// dir configured, NewAppendableStream would otherwise refuse the
	// existing directory first and misreport the duplicate as a bad request.
	if _, ok := s.eng.Lookup(req.Name); ok {
		writeError(w, http.StatusConflict, fmt.Errorf("stream %q already exists", req.Name))
		return
	}
	size := req.SegmentSize
	if size <= 0 {
		size = s.opts.SegmentSize
	}
	st, err := streamcount.NewAppendableStream(req.N, streamcount.AppendableOptions{
		SegmentSize: size,
		Dir:         segmentDir(s.opts.SegmentDir, req.Name),
		Sync:        s.opts.Sync,
		FS:          s.opts.FS,
	})
	if err != nil {
		// A segment directory that already holds a stream is a conflict with
		// existing state (e.g. a leftover directory whose recovery failed),
		// not a malformed request.
		code := http.StatusBadRequest
		if errors.Is(err, stream.ErrDirInUse) {
			code = http.StatusConflict
		}
		writeError(w, code, err)
		return
	}
	if err := s.eng.RegisterStream(req.Name, st); err != nil {
		code := http.StatusConflict // duplicate name is the expected failure
		if s.draining.Load() {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, wire.StreamInfo{
		Name: req.Name, N: req.N, InsertOnly: true, Appendable: true,
	})
}

func (s *Server) handleListStreams(w http.ResponseWriter, r *http.Request) {
	q, ws := s.registryStats()
	list := wire.StreamsList{
		Streams:     s.eng.Streams(),
		Queries:     q,
		Watches:     ws,
		ResultCache: s.resultCacheStats(),
		Tenants:     s.tenantStats(),
	}
	// A clustered node lists only its own streams; the map version lets a
	// CLI aggregate per-node listings and detect a stale view.
	if s.cluster != nil {
		list.ClusterVersion = s.cluster.Version()
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Gated even though it is a read: until recovery registers every durable
	// stream, a lookup here would 404 a stream that exists on disk.
	if s.rejectRecovering(w) {
		return
	}
	name := r.PathValue("name")
	if s.rejectWrongNode(w, name) {
		return
	}
	st, ok := s.eng.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("stream %q: %w", name, streamcount.ErrUnknownStream))
		return
	}
	version, err := s.eng.StreamVersion(name)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	info := wire.StreamInfo{
		Name:       name,
		N:          st.N(),
		Version:    version,
		InsertOnly: st.InsertOnly(),
		Passes:     s.eng.PassesOn(name),
	}
	if app, ok := st.(*streamcount.AppendableStream); ok {
		info.Appendable = true
		info.EvictFailures = app.EvictFailures()
	}
	writeJSON(w, http.StatusOK, info)
}

// --- ingestion ---

// appendDedup is one Idempotency-Key receipt. done closes when the owning
// request finishes; ok reports whether resp holds a recorded success (a
// failed attempt deletes its entry instead, so a retry can claim the key).
type appendDedup struct {
	done chan struct{}
	resp wire.AppendResponse
	ok   bool
}

// appendOrderEntry is one appendOrder slot. The pointer identifies the
// registration the slot was created for: a key whose failed attempt deleted
// its map entry and whose retry re-registered it has a NEWER pointer in the
// map, and the stale slot must not evict (or block eviction on) the retry.
type appendOrderEntry struct {
	key string
	d   *appendDedup
}

// claimAppend registers an Idempotency-Key, returning (entry, true) when the
// caller became its owner and must finish it, or (entry, false) when another
// request holds the key — wait on entry.done and replay entry.resp.
func (s *Server) claimAppend(key string) (*appendDedup, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.appends[key]; ok {
		return d, false
	}
	d := &appendDedup{done: make(chan struct{})}
	s.appends[key] = d
	s.appendOrder = append(s.appendOrder, appendOrderEntry{key: key, d: d})
	s.evictAppendsLocked()
	return d, true
}

// evictAppendsLocked enforces bounded retention: evict the oldest completed
// receipts past the cap, skipping stale order entries whose registration was
// replaced, and stopping at the first in-flight entry (its owner still
// needs it). Caller holds s.mu.
func (s *Server) evictAppendsLocked() {
	for len(s.appends) > s.maxDedup && len(s.appendOrder) > 0 {
		ent := s.appendOrder[0]
		if v, ok := s.appends[ent.key]; ok && v == ent.d {
			select {
			case <-v.done:
			default:
				return
			}
			delete(s.appends, ent.key)
		}
		s.appendOrder = s.appendOrder[1:]
	}
}

// finishAppend completes an owned Idempotency-Key entry: a success records
// the receipt for replay, a failure deletes the entry so the key can be
// retried.
func (s *Server) finishAppend(key string, d *appendDedup, resp wire.AppendResponse, ok bool) {
	s.mu.Lock()
	if ok {
		d.resp, d.ok = resp, true
	} else {
		delete(s.appends, key)
	}
	s.mu.Unlock()
	close(d.done)
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) || s.rejectRecovering(w) {
		return
	}
	name := r.PathValue("name")
	if s.rejectWrongNode(w, name) || s.rejectTransferring(w, name) {
		return
	}
	var req wire.AppendRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Admission control: spend the tenant's append token before any dedup or
	// engine work, so a saturating tenant cannot consume ingest capacity.
	who := s.tenantOf(r)
	if d := s.tenants.AdmitAppend(who); !d.OK {
		rejectQuota(w, who, d)
		return
	}
	// Idempotency: a retried request carrying the same Idempotency-Key as an
	// append the server already applied gets that append's receipt back
	// instead of double-publishing the batch — across restarts too, because
	// durable streams journal each keyed append's receipt with the log and
	// recovery reseeds this registry from the survivors. Keys are scoped per
	// stream.
	var dedup *appendDedup
	var dedupKey string
	key := r.Header.Get("Idempotency-Key")
	if len(key) > stream.MaxReceiptKeyLen {
		writeError(w, http.StatusBadRequest, fmt.Errorf("Idempotency-Key is %d bytes, max %d", len(key), stream.MaxReceiptKeyLen))
		return
	}
	if key != "" {
		dedupKey = name + "\x00" + key
		for {
			d, owner := s.claimAppend(dedupKey)
			if owner {
				dedup = d
				break
			}
			select {
			case <-d.done:
			case <-r.Context().Done():
				writeError(w, http.StatusServiceUnavailable, fmt.Errorf("canceled while waiting for concurrent append with the same idempotency key"))
				return
			}
			if d.ok {
				resp := d.resp
				resp.Deduped = true
				writeJSON(w, http.StatusOK, resp)
				return
			}
			// The recorded attempt failed and removed itself; claim the key
			// and run the append for real.
		}
	}
	resp, code, err := s.doAppend(name, key, req)
	if dedup != nil {
		s.finishAppend(dedupKey, dedup, resp, err == nil)
	}
	if err != nil {
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// doAppend validates and applies one append batch under key (empty: no
// idempotency). A nil error means the batch is published (including the
// evict-failure warning case, where the data is safe in memory and the disk
// flush retries later); the returned response is the receipt an
// Idempotency-Key replay must reproduce.
func (s *Server) doAppend(name, key string, req wire.AppendRequest) (wire.AppendResponse, int, error) {
	if len(req.Updates) == 0 {
		return wire.AppendResponse{}, http.StatusBadRequest, fmt.Errorf("empty update batch")
	}
	ups := make([]streamcount.Update, len(req.Updates))
	for i, u := range req.Updates {
		op := streamcount.Insert
		switch u.Op {
		case "", "+", "insert":
		case "-", "delete":
			op = streamcount.Delete
		default:
			return wire.AppendResponse{}, http.StatusBadRequest, fmt.Errorf("update %d: unknown op %q", i, u.Op)
		}
		ups[i] = streamcount.Update{Edge: streamcount.Edge{U: u.U, V: u.V}, Op: op}
	}
	version, err := s.eng.AppendKeyed(name, key, ups)
	if err != nil {
		// Eviction failure is a disk-backing problem, not a lost batch: the
		// updates are published, so a retry would double-ingest. Succeed
		// with a warning instead.
		if errors.Is(err, stream.ErrEvictFailed) {
			return wire.AppendResponse{Version: version, Appended: len(ups), Warning: err.Error()}, http.StatusOK, nil
		}
		return wire.AppendResponse{}, statusFor(err), err
	}
	return wire.AppendResponse{Version: version, Appended: len(ups)}, http.StatusOK, nil
}

// validStreamName admits exactly the names that are safe as URL path
// segments and as directory names under the segment dir: 1-128 chars of
// [a-zA-Z0-9_-], not starting with '_'. No dots — "." and ".." would
// collide with or escape the operator-configured segment directory — and
// the leading underscore is reserved for server-owned streams ("_default"
// has a segment directory a client-created twin would corrupt).
func validStreamName(name string) bool {
	if len(name) == 0 || len(name) > 128 || name[0] == '_' {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// rejectDraining 503s mutating requests while the server drains.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return true
	}
	return false
}

// rejectRecovering 503s requests that touch stream state until every
// durable stream has been rebuilt from its segment directory (stream reads
// included: a not-yet-recovered stream must not 404). The Retry-After tells
// well-behaved clients exactly what to do; the typed code lets them retry
// the identical request safely.
func (s *Server) rejectRecovering(w http.ResponseWriter) bool {
	if s.recovering.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, wire.Error{
			Error: "server is recovering durable streams; retry shortly",
			Code:  wire.CodeRecovering,
		})
		return true
	}
	return false
}
