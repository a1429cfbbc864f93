// Package client is the Go SDK for streamcountd, the streamcount network
// daemon. Its Client implements the same streamcount.Querier and
// streamcount.Watcher interfaces as the in-process *streamcount.Engine, so
// query code — including the generic streamcount.Do / streamcount.Watch
// entry points and whole watch-loops — runs unchanged against a local
// engine or a remote daemon:
//
//	c, _ := client.New("http://localhost:8470")
//	p, _ := streamcount.PatternByName("triangle")
//	est, err := streamcount.Do(ctx, c, streamcount.CountQuery(p,
//	    streamcount.WithTrials(100000), streamcount.WithSeed(7)))
//
// Results are bit-identical to the same query against a local engine over
// the same stream prefix: the daemon executes the identical code at the
// identical (seed, stream_version), and the JSON float encoding
// round-trips exactly.
//
// Standing queries arrive over Server-Sent Events and surface as the same
// streamcount.Subscription the local engine returns:
//
//	sub, _ := streamcount.Watch(ctx, c, "live", streamcount.CountQuery(p,
//	    streamcount.WithTrials(50000), streamcount.WithSeed(7)))
//	for ev := range sub.Events() { ... }
//
// Errors carry the facade's typed sentinels (streamcount.ErrUnknownStream,
// ErrBadConfig, ...) rehydrated from the wire, so errors.Is dispatch works
// across the network boundary.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"streamcount"
	"streamcount/internal/wire"
)

// Client is a streamcountd API client. It is safe for concurrent use.
//
// The client is self-healing by default: retryable failures — transport
// errors, 429/502/503/504, the daemon's "recovering" window after a restart
// — are retried with exponential backoff and jitter (DefaultRetryPolicy),
// honoring Retry-After. Append attaches an Idempotency-Key so retries can
// never double-ingest a batch, and dropped watch connections reconnect and
// resume from the last delivered stream version, keeping the event
// transcript gap-free. Configure or disable with WithRetry.
type Client struct {
	base   string
	http   *http.Client
	retry  RetryPolicy
	tenant string
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation). Note that a client-wide Timeout would also
// kill long-lived watch connections; prefer per-request contexts.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithTenant stamps every request (watch connections included) with the
// given tenant identity via the X-Tenant header, so the daemon's per-tenant
// admission control — token-bucket quotas and priority lanes — attributes
// the client's work to that tenant. Empty (the default) is the daemon's
// default tenant. A quota rejection surfaces as a 429 with
// streamcount.ErrQuotaExhausted, which the retry policy waits out under the
// server's Retry-After.
func WithTenant(name string) Option {
	return func(c *Client) { c.tenant = name }
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8470").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http(s)", baseURL)
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), http: http.DefaultClient, retry: DefaultRetryPolicy()}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// ErrWrongNode reports that the addressed cluster node does not own the
// requested stream (HTTP 421 with code "wrong_node"). The error's wire
// body names the owner; Cluster re-routes there automatically, so plain
// Client users only see this when talking to a single node of a sharded
// deployment directly.
var ErrWrongNode = errors.New("wrong node for stream")

// statusError builds the typed error for one non-2xx response: status and
// Retry-After for the retry loop, the decoded wire body for the routing
// layer, and the rehydrated sentinel chain for callers.
func statusError(status int, h http.Header, body []byte) *apiStatusError {
	var we wire.Error
	_ = json.Unmarshal(body, &we)
	return &apiStatusError{
		status:     status,
		retryAfter: parseRetryAfter(h),
		api:        we,
		err:        apiError(status, we, body),
	}
}

// apiError reconstructs a typed error from a non-2xx response. The wire
// error code is authoritative; the HTTP status is the fallback for bodies
// without one (proxies, old servers).
func apiError(status int, we wire.Error, body []byte) error {
	msg := strings.TrimSpace(string(body))
	if we.Error != "" {
		msg = we.Error
	}
	sentinel := codeSentinel(we.Code)
	if sentinel == nil && we.Code == wire.CodeWrongNode {
		sentinel = ErrWrongNode
	}
	if sentinel == nil && we.Code == "" {
		// No code at all (plain validation failures, proxies): fall back to
		// the status. A present-but-unrecognized code (e.g. watch_limit, or
		// one from a newer server) is deliberately left sentinel-less rather
		// than mislabeled.
		switch status {
		case http.StatusNotFound:
			sentinel = streamcount.ErrUnknownStream
		case http.StatusConflict:
			sentinel = streamcount.ErrNotAppendable
		case http.StatusBadRequest:
			sentinel = streamcount.ErrBadConfig
		case http.StatusServiceUnavailable:
			sentinel = streamcount.ErrEngineClosed
		}
	}
	if sentinel != nil {
		return fmt.Errorf("client: server %d: %s: %w", status, msg, sentinel)
	}
	return fmt.Errorf("client: server %d: %s", status, msg)
}

// codeSentinel maps a wire error code to the facade sentinel it names.
func codeSentinel(code string) error {
	switch code {
	case wire.CodeUnknownStream:
		return streamcount.ErrUnknownStream
	case wire.CodeNotAppendable:
		return streamcount.ErrNotAppendable
	case wire.CodeBadPattern:
		return streamcount.ErrBadPattern
	case wire.CodeBadConfig:
		return streamcount.ErrBadConfig
	case wire.CodeCanceled:
		return streamcount.ErrCanceled
	case wire.CodeEngineClosed:
		return streamcount.ErrEngineClosed
	case wire.CodeWatchClosed, wire.CodeDraining:
		return streamcount.ErrWatchClosed
	case wire.CodeReceiptFailed:
		return streamcount.ErrReceiptFailed
	case wire.CodeQuotaExhausted:
		return streamcount.ErrQuotaExhausted
	default:
		return nil
	}
}

// doJSON performs a request with a JSON body (when in is non-nil), retrying
// retryable failures under the client's policy, and decodes a JSON response
// into out (when non-nil).
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	return c.doRetry(ctx, method, path, nil, in, out)
}

// doRetry is doJSON with extra headers: the body is marshaled once and every
// attempt sends the identical bytes (and headers — in particular the same
// Idempotency-Key), so a retry is a true replay.
func (c *Client) doRetry(ctx context.Context, method, path string, hdr http.Header, in, out any) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	attempts := c.retry.attempts()
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, hdr, data, out)
		if err == nil {
			return nil
		}
		retry, serverDelay := retryDecision(err)
		if !retry || attempt+1 >= attempts || ctx.Err() != nil {
			return err
		}
		delay := c.retry.delay(attempt)
		if serverDelay > delay {
			delay = serverDelay
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return wrapTransport(ctx, ctx.Err())
		}
	}
}

// doOnce is a single request attempt.
func (c *Client) doOnce(ctx context.Context, method, path string, hdr http.Header, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return wrapTransport(ctx, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return wrapTransport(ctx, err)
	}
	if resp.StatusCode/100 != 2 {
		return statusError(resp.StatusCode, resp.Header, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: undecodable response: %w", err)
		}
	}
	return nil
}

// wrapTransport maps a transport-level failure: a canceled or expired
// context surfaces as the facade's ErrCanceled (wrapping the context error,
// so both errors.Is checks work), exactly as a local engine would report
// it.
func wrapTransport(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("client: %w: %w", streamcount.ErrCanceled, ctxErr)
	}
	return fmt.Errorf("client: %w", err)
}

// CreateStream creates an appendable stream on the daemon with vertices
// 0..n-1.
func (c *Client) CreateStream(ctx context.Context, name string, n int64) error {
	return c.doJSON(ctx, http.MethodPost, "/v1/streams", wire.CreateStreamRequest{Name: name, N: n}, nil)
}

// Streams returns the daemon's registered stream names.
func (c *Client) Streams(ctx context.Context) ([]string, error) {
	var list wire.StreamsList
	if err := c.doJSON(ctx, http.MethodGet, "/v1/streams", nil, &list); err != nil {
		return nil, err
	}
	return list.Streams, nil
}

// Append publishes updates to the named stream's append-only log and
// returns the new stream version — the same contract as
// streamcount.Engine.Append, degraded-durability signaling included: when
// the server acknowledges the batch as published but not (fully) durable (a
// failing disk under its segment directory), Append returns the new version
// alongside an error wrapping streamcount.ErrEvictFailed, exactly as a
// local engine would. Callers that need durability must treat that as "at
// risk until the disk heals"; callers that only need publication can
// errors.Is-filter it.
//
// Every call carries a fresh Idempotency-Key that is reused across its
// retries, so a retried append — including one whose first attempt was
// durably applied by a server that died before the response arrived — is
// never applied twice: the server replays the original receipt, which
// durable streams journal with the log and rebuild on recovery.
func (c *Client) Append(ctx context.Context, stream string, ups []streamcount.Update) (int64, error) {
	return c.appendKeyed(ctx, stream, newIdempotencyKey(), ups)
}

// appendKeyed is Append with a caller-supplied Idempotency-Key. Cluster
// routes through it so one logical append keeps one key across every hop
// of a wrong_node redirect as well as across retries — a batch applied by
// the old owner just before the ownership flip is recognized as a replay
// by the new owner, whose receipt journal shipped with the segments.
func (c *Client) appendKeyed(ctx context.Context, stream, key string, ups []streamcount.Update) (int64, error) {
	req := wire.AppendRequest{Updates: make([]wire.Update, len(ups))}
	for i, u := range ups {
		w := wire.Update{U: u.Edge.U, V: u.Edge.V}
		if u.Op == streamcount.Delete {
			w.Op = "-"
		}
		req.Updates[i] = w
	}
	hdr := http.Header{"Idempotency-Key": []string{key}}
	var resp wire.AppendResponse
	if err := c.doRetry(ctx, http.MethodPost, "/v1/streams/"+url.PathEscape(stream)+"/edges", hdr, req, &resp); err != nil {
		return 0, err
	}
	if resp.Warning != "" {
		// The batch is published (the version is real and must be returned),
		// but acknowledged durability is degraded until the server's disk
		// heals — surface it instead of reporting plain success.
		return resp.Version, fmt.Errorf("client: append published with degraded durability: %s: %w", resp.Warning, streamcount.ErrEvictFailed)
	}
	return resp.Version, nil
}

// StreamVersion returns the named stream's current version.
func (c *Client) StreamVersion(ctx context.Context, stream string) (int64, error) {
	var info wire.StreamInfo
	if err := c.doJSON(ctx, http.MethodGet, "/v1/streams/"+url.PathEscape(stream)+"/stats", nil, &info); err != nil {
		return 0, err
	}
	return info.Version, nil
}

// encodeQuery lowers a facade query to its wire form. Every query value the
// facade constructs marshals itself into exactly the wire.Query shape, so
// the round trip is the identity on fields; custom-pattern queries report
// their encodability error here, before any request is made.
func encodeQuery(stream string, q streamcount.Query) (wire.Query, error) {
	data, err := json.Marshal(q)
	if err != nil {
		var merr *json.MarshalerError
		if errors.As(err, &merr) {
			err = merr.Unwrap()
		}
		return wire.Query{}, fmt.Errorf("client: query is not wire-encodable: %w", err)
	}
	var wq wire.Query
	if err := json.Unmarshal(data, &wq); err != nil {
		return wire.Query{}, fmt.Errorf("client: query round-trip: %w", err)
	}
	wq.Stream = stream
	return wq, nil
}

// outcomeFromWire rehydrates a served query into the facade's Outcome.
func outcomeFromWire(r *wire.QueryResult) streamcount.Outcome {
	o := streamcount.Outcome{Kind: r.Kind, StreamVersion: r.StreamVersion}
	if r.Count != nil {
		o.Count = countFromWire(r.Count)
	}
	if r.Sample != nil {
		sr := &streamcount.SampleResult{Found: r.Sample.Found, Passes: r.Sample.Passes}
		if r.Sample.Found {
			sr.Copy.Vertices = r.Sample.Vertices
			for _, e := range r.Sample.Edges {
				sr.Copy.Edges = append(sr.Copy.Edges, streamcount.Edge{U: e[0], V: e[1]})
			}
		}
		o.Sample = sr
	}
	if r.Decision != nil {
		o.Decision = &streamcount.DistinguishResult{Above: r.Decision.Above, Estimate: countFromWire(r.Decision.Estimate)}
	}
	return o
}

func countFromWire(c *wire.Count) *streamcount.CountResult {
	if c == nil {
		return nil
	}
	return &streamcount.CountResult{
		Value: c.Value, M: c.M, Passes: c.Passes,
		Queries: c.Queries, SpaceWords: c.SpaceWords, Trials: c.Trials,
	}
}

// Submit runs q on the daemon's default stream. It implements
// streamcount.Querier.
func (c *Client) Submit(ctx context.Context, q streamcount.Query) (streamcount.Outcome, error) {
	return c.SubmitOn(ctx, "", q)
}

// SubmitOn is Submit against a named stream. The returned Outcome is
// bit-identical to a local engine's at the same (seed, stream version);
// like the local engine, the authoritative version is the Outcome's
// StreamVersion.
func (c *Client) SubmitOn(ctx context.Context, stream string, q streamcount.Query) (streamcount.Outcome, error) {
	fail := streamcount.Outcome{Kind: q.Kind()}
	wq, err := encodeQuery(stream, q)
	if err != nil {
		return fail, err
	}
	var resp wire.QueryResult
	if err := c.doJSON(ctx, http.MethodPost, "/v1/queries", wq, &resp); err != nil {
		return fail, err
	}
	return outcomeFromWire(&resp), nil
}

// watchConn is one live SSE connection of a (possibly reconnecting) watch.
type watchConn struct {
	cancel context.CancelFunc
	body   io.ReadCloser
	r      *bufio.Reader
}

func (wc *watchConn) close() {
	wc.cancel()
	wc.body.Close()
}

// dialWatch performs one watch-connection attempt. The connection's request
// context derives from ctx and is additionally cancelable via the returned
// conn, so the subscription can sever a connection it is done with.
func (c *Client) dialWatch(ctx context.Context, body []byte) (*watchConn, error) {
	reqCtx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, c.base+"/v1/watches", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		cancel()
		return nil, wrapTransport(ctx, err)
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		cancel()
		return nil, statusError(resp.StatusCode, resp.Header, data)
	}
	return &watchConn{cancel: cancel, body: resp.Body, r: bufio.NewReader(resp.Body)}, nil
}

// openWatch dials a watch, retrying retryable failures under the client's
// policy — so establishing (or re-establishing) a watch against a daemon
// mid-restart waits the restart out instead of failing.
func (c *Client) openWatch(ctx context.Context, req wire.WatchRequest) (*watchConn, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encode watch request: %w", err)
	}
	attempts := c.retry.attempts()
	for attempt := 0; ; attempt++ {
		conn, err := c.dialWatch(ctx, data)
		if err == nil {
			return conn, nil
		}
		retry, serverDelay := retryDecision(err)
		if !retry || attempt+1 >= attempts || ctx.Err() != nil {
			return nil, err
		}
		delay := c.retry.delay(attempt)
		if serverDelay > delay {
			delay = serverDelay
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, wrapTransport(ctx, ctx.Err())
		}
	}
}

// WatchQuery registers q as a standing query on the named stream and
// returns the untyped subscription, implementing streamcount.Watcher: the
// daemon holds a Server-Sent-Events connection open and streams one event
// per evaluation, each bit-identical to a standalone run at its reported
// (WatchSeedAt(seed, version), version).
//
// The subscription is self-healing: when the connection drops or the
// server restarts (drain, crash, recovery window), the client reconnects
// under its retry policy and resumes from the last delivered stream
// version, so the subscription's transcript stays gap- and duplicate-free
// across server restarts — identical to the transcript of an uninterrupted
// watch. Event generations are numbered by the client and stay contiguous
// across reconnects. The subscription ends — with the terminal error on
// the final event and from Err — when ctx is canceled, Close is called, a
// reconnect exhausts the retry policy, or the server reports a
// non-retryable end.
func (c *Client) WatchQuery(ctx context.Context, stream string, q streamcount.Query, opts ...streamcount.WatchOption) (*streamcount.Subscription[streamcount.Outcome], error) {
	return watchQuery(ctx, stream, q, opts, c.openWatch)
}

// watchQuery is the self-healing subscription behind Client.WatchQuery and
// Cluster.WatchQuery, which differ only in how dial reaches a node.
func watchQuery(ctx context.Context, stream string, q streamcount.Query, opts []streamcount.WatchOption, dial func(context.Context, wire.WatchRequest) (*watchConn, error)) (*streamcount.Subscription[streamcount.Outcome], error) {
	cfg := streamcount.NewWatchConfig(opts...)
	wq, err := encodeQuery(stream, q)
	if err != nil {
		return nil, err
	}
	req := wire.WatchRequest{Query: wq, Policy: wire.PolicyLatest}
	if cfg.EveryVersion {
		req.Policy = wire.PolicyEvery
	}
	if cfg.AfterVersion > 0 {
		req.After = cfg.AfterVersion
	}

	// The first connection is established synchronously, so misconfigured
	// watches (bad pattern, unknown stream) fail the call itself, exactly
	// like the local engine's WatchQuery.
	conn, err := dial(ctx, req)
	if err != nil {
		return nil, err
	}

	sub := streamcount.NewSubscription(cfg.Buffer, func(sctx context.Context, emit func(streamcount.WatchEvent[streamcount.Outcome]) bool) error {
		last := req.After
		var gen int64
		for {
			// Closing the subscription severs the live connection, which
			// unblocks the blocking reads below.
			stop := context.AfterFunc(sctx, conn.cancel)
			done, err := consumeWatch(ctx, sctx, conn.r, emit, &last, &gen)
			stop()
			conn.close()
			if done {
				return err
			}
			// Retryable interruption: reconnect and resume past the last
			// delivered version. The dial waits out restarts; if it cannot
			// get a connection, the watch ends with the dial error.
			rreq := req
			rreq.After = last
			if conn, err = dial(ctx, rreq); err != nil {
				if sctx.Err() != nil {
					return streamcount.ErrWatchClosed
				}
				return fmt.Errorf("client: watch could not reconnect: %w", err)
			}
		}
	})
	return sub, nil
}

// retryableEndCode reports whether a server-sent terminal event names a
// condition a reconnect resolves: a draining or recovering server (a
// restart in progress), a closed engine (ditto), this client having been
// cut as a slow consumer, or the stream shipping to another cluster node
// (resume picks up where it left off — against whichever node owns the
// stream by then).
func retryableEndCode(code string) bool {
	switch code {
	case wire.CodeDraining, wire.CodeRecovering, wire.CodeEngineClosed,
		wire.CodeSlowConsumer, wire.CodeTransferring:
		return true
	}
	return false
}

// consumeWatch parses one SSE connection and feeds the subscription,
// tracking the last delivered stream version in *last and the client-local
// generation counter in *gen. It returns done=true with the subscription's
// terminal error, or done=false when the connection was lost (or ended) in
// a way a resuming reconnect heals.
func consumeWatch(ctx, sctx context.Context, r *bufio.Reader, emit func(streamcount.WatchEvent[streamcount.Outcome]) bool, last, gen *int64) (bool, error) {
	closedErr := func() error {
		switch {
		case sctx.Err() != nil: // consumer Close
			return streamcount.ErrWatchClosed
		case ctx.Err() != nil: // caller context
			return fmt.Errorf("client: watch: %w: %w", streamcount.ErrCanceled, context.Cause(ctx))
		default:
			return nil
		}
	}
	for {
		name, data, err := readSSEEvent(r)
		if err != nil {
			if cerr := closedErr(); cerr != nil {
				return true, cerr
			}
			return false, fmt.Errorf("client: watch connection lost: %w", err)
		}
		switch name {
		case "watch": // registration acknowledgment; nothing to surface
		case "result":
			var we wire.WatchEvent
			if err := json.Unmarshal(data, &we); err != nil || we.Result == nil {
				return true, fmt.Errorf("client: undecodable watch event %q: %v", data, err)
			}
			o := outcomeFromWire(we.Result)
			*last = o.StreamVersion
			ev := streamcount.WatchEvent[streamcount.Outcome]{
				Result:        o,
				StreamVersion: o.StreamVersion,
				Generation:    *gen, // client-local: contiguous across reconnects
			}
			*gen++
			if !emit(ev) {
				return true, streamcount.ErrWatchClosed
			}
		case "end":
			var end wire.WatchEnd
			if err := json.Unmarshal(data, &end); err != nil {
				return true, fmt.Errorf("client: undecodable end event %q: %w", data, err)
			}
			if retryableEndCode(end.Code) {
				if cerr := closedErr(); cerr != nil {
					return true, cerr
				}
				return false, fmt.Errorf("client: watch ended by server: %s", end.Error)
			}
			if sentinel := codeSentinel(end.Code); sentinel != nil {
				return true, fmt.Errorf("client: watch ended by server: %s: %w", end.Error, sentinel)
			}
			return true, fmt.Errorf("client: watch ended by server: %s", end.Error)
		default: // unknown event types are skipped for forward compatibility
		}
	}
}

// readSSEEvent parses one complete server-sent event, skipping heartbeat
// comments and blank keep-alives.
func readSSEEvent(r *bufio.Reader) (name string, data []byte, err error) {
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return "", nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if name != "" || len(data) > 0 {
				return name, data, nil
			}
		case strings.HasPrefix(line, ":"): // comment / heartbeat
		case strings.HasPrefix(line, "event:"):
			name = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		}
	}
}

// Compile-time interface symmetry with the local engine.
var (
	_ streamcount.Querier = (*Client)(nil)
	_ streamcount.Watcher = (*Client)(nil)
	_ streamcount.Querier = (*streamcount.Engine)(nil)
	_ streamcount.Watcher = (*streamcount.Engine)(nil)
)
