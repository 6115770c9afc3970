// Package rpc implements the message layer of the RHODOS client-server
// interface (§3): request/response messaging whose semantics make repeated
// executions safe.
//
// "Certain errors caused by computer failures and communication delays may
// lead to repeated execution of some operations. However, their repetition
// in RHODOS does not produce any uncertain effect" — every request carries a
// client identity and sequence number, and the receiving endpoint keeps the
// response of each executed request in a duplicate-request cache. A retried
// or duplicated message is answered from the cache without re-executing the
// operation. This per-client window of past requests is exactly why the
// paper calls the file service "nearly" stateless.
//
// Two transports are provided: an in-process transport with deterministic
// fault injection (message loss and duplication) for experiments, and a TCP
// transport used by the cmd/rhodosd server. The TCP wire format is a
// length-prefixed binary framing (see wire.go) multiplexed over a single
// connection — many requests in flight, responses in any order, payload
// buffers recycled through bounded free lists.
package rpc

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// PtSend is the fault point on the in-process transport's send path: arm it
// with a delay to model a slow network (a delay past the caller's attempt
// deadline executes the request but loses the response), or with an error to
// force a drop.
var PtSend = fault.Register("rpc.send")

// Request is one message from a client to a service.
type Request struct {
	// ClientID identifies the sending agent instance.
	ClientID uint64
	// Seq is the per-client request sequence number; retransmissions reuse
	// it, which is how duplicates are recognized.
	Seq uint64
	// Method names the operation.
	Method string
	// Body is the operation's encoded argument.
	Body []byte
	// TraceID and SpanID carry the caller's span identity for cross-node
	// tracing (see internal/obs): when nonzero, the binary wire encodes the
	// traced frame kind and the serving endpoint continues the caller's
	// span tree instead of rooting its own. Zero — tracing off — keeps the
	// original frame layout byte-for-byte.
	TraceID uint64
	SpanID  uint64
}

// Response is the reply to a Request.
type Response struct {
	Seq  uint64
	Body []byte
	// Err is the service error, empty on success. (Transport errors are
	// returned out of band.)
	Err string
}

// Handler executes one decoded request at an endpoint, with the client
// identity visible — what a replicating service needs in order to forward
// (ClientID, Seq) alongside the operation it ships to its backup — and with
// the request context, which carries the endpoint's serving span when the
// request arrived traced: services thread it through their own instrumented
// layers so the whole execution lands in the caller's span tree.
type Handler func(ctx context.Context, req Request) ([]byte, error)

// Link is one layer of a server stack below the endpoint, where client
// identity and sequence are no longer needed: the cluster service's inner
// handler, the lease manager's, the rpcfs server and the replication
// applier's replay all have this shape, so each hands the next the context
// it was given.
type Link func(ctx context.Context, method string, body []byte) ([]byte, error)

// Errors.
var (
	// ErrDropped reports a message lost by the (injected) network.
	ErrDropped = errors.New("rpc: message dropped")
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("rpc: transport closed")
)

// Pusher sends one-way push frames to a connected client — the reverse
// direction of the request/response flow. The TCP server's per-connection
// state implements it; handlers obtain one via PeerFromContext. Push
// encodes the frame before it returns, so the body stays the caller's;
// delivery is at-most-once with no reply.
type Pusher interface {
	Push(method string, body []byte) error
}

// Peer is the connection-level identity of the client behind a request:
// the wire ClientID plus, on transports that support server push, a Pusher
// bound to the client's connection. A lease-granting service registers the
// Pusher against the ClientID so it can recall leases later — including
// from requests on other connections.
type Peer struct {
	ClientID uint64
	Pusher   Pusher
}

type peerKey struct{}

// ContextWithPeer attaches the requesting connection's Peer to ctx; the
// transport calls it before handing a request to the Endpoint.
func ContextWithPeer(ctx context.Context, p Peer) context.Context {
	return context.WithValue(ctx, peerKey{}, p)
}

// PeerFromContext returns the Peer of the request being handled, if the
// transport provided one (the TCP server does; the in-process transport
// does not).
func PeerFromContext(ctx context.Context) (Peer, bool) {
	p, ok := ctx.Value(peerKey{}).(Peer)
	return p, ok
}

// dupCache is the duplicate-request cache: the memory of past requests that
// makes operations idempotent. It keeps up to window responses per client,
// and at most maxClients client windows: the least recently active client's
// window is reclaimed when a new client would exceed the bound, so a
// long-lived endpoint serving a churning client population stays "nearly"
// stateless instead of accumulating a window per client ever seen. Its
// Endpoint's mutex guards it.
type dupCache struct {
	window     int
	maxClients int
	clients    map[uint64]*clientWindow
	lru        *list.List // of uint64 client IDs, front = most recently active
}

type clientWindow struct {
	responses map[uint64]Response
	order     []uint64
	elem      *list.Element
}

// Duplicate-cache bounds: the responses kept per client, and the client
// windows kept.
const (
	defaultWindow     = 128
	defaultMaxClients = 1024
)

// lookup returns the cached response for (client, seq), if any, and marks
// the client most recently active.
func (c *dupCache) lookup(client, seq uint64) (Response, bool) {
	w, ok := c.clients[client]
	if !ok {
		return Response{}, false
	}
	c.lru.MoveToFront(w.elem)
	resp, ok := w.responses[seq]
	return resp, ok
}

// store remembers the response for (client, seq), evicting the oldest entry
// beyond the per-client window and the least recently active client beyond
// the client bound.
func (c *dupCache) store(client, seq uint64, resp Response) {
	w, ok := c.clients[client]
	if !ok {
		for len(c.clients) >= c.maxClients {
			oldest := c.lru.Back()
			delete(c.clients, oldest.Value.(uint64))
			c.lru.Remove(oldest)
		}
		w = &clientWindow{responses: make(map[uint64]Response)}
		w.elem = c.lru.PushFront(client)
		c.clients[client] = w
	} else {
		c.lru.MoveToFront(w.elem)
	}
	if _, exists := w.responses[seq]; exists {
		w.responses[seq] = resp
		return
	}
	w.responses[seq] = resp
	w.order = append(w.order, seq)
	for len(w.order) > c.window {
		old := w.order[0]
		w.order = w.order[1:]
		delete(w.responses, old)
	}
}

// Transient wraps a handler error so the endpoint's duplicate cache does
// not retain the response: the refusal reflects a condition — a shard's
// backup not yet promoted, a service still warming up — that a retry of the
// same sequence number may legitimately outlive. Without the wrap, the
// cached refusal would answer every same-sequence retransmission forever,
// turning a transient condition into a permanent one. The wrapped message
// crosses the wire unchanged.
func Transient(err error) error { return transientErr{err} }

type transientErr struct{ error }

func (t transientErr) Unwrap() error { return t.error }

func isTransient(err error) bool {
	var t transientErr
	return errors.As(err, &t)
}

// Endpoint wraps a Handler with the duplicate-request cache.
type Endpoint struct {
	handler Handler
	// requests and duplicates count metrics.RPCRequests and
	// metrics.RPCDuplicates (WithMetrics).
	requests, duplicates *metrics.Counter
	obsRec               *obs.Recorder
	// NoDupCache disables idempotency (ablation for E13): every message is
	// executed, duplicates included.
	noDup bool

	// mu guards the duplicate cache and inflight, which tracks requests
	// currently executing, so a duplicate that arrives while the original
	// is still running waits for that result instead of executing again. A
	// serial server never needed this — one connection could not deliver a
	// retry while the original executed — but a multiplexed server
	// dispatching one connection's frames to a worker pool can.
	mu       sync.Mutex
	dup      dupCache
	inflight map[clientSeq]*inflightCall
}

type clientSeq struct {
	client uint64
	seq    uint64
}

type inflightCall struct {
	done chan struct{} // closed after resp is set
	resp Response
}

// EndpointOption configures an Endpoint.
type EndpointOption func(*Endpoint)

// WithMetrics records request/duplicate counters.
func WithMetrics(m *metrics.Set) EndpointOption {
	return func(e *Endpoint) {
		e.requests, e.duplicates = m.Counter(metrics.RPCRequests), m.Counter(metrics.RPCDuplicates)
	}
}

// WithObs observes every handled request as an rpc-layer operation
// (duplicate-cache replays included — they are real network round trips).
func WithObs(r *obs.Recorder) EndpointOption { return func(e *Endpoint) { e.obsRec = r } }

// WithoutDupCache disables the duplicate-request cache (E13 ablation).
func WithoutDupCache() EndpointOption { return func(e *Endpoint) { e.noDup = true } }

// WithWindow sets how many responses the duplicate cache keeps per client
// (default 128).
func WithWindow(n int) EndpointOption {
	return func(e *Endpoint) {
		if n > 0 {
			e.dup.window = n
		}
	}
}

// NewEndpoint wraps handler.
func NewEndpoint(handler Handler, opts ...EndpointOption) *Endpoint {
	e := &Endpoint{
		handler: handler,
		dup: dupCache{window: defaultWindow, maxClients: defaultMaxClients,
			clients: make(map[uint64]*clientWindow), lru: list.New()},
		inflight: make(map[clientSeq]*inflightCall),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Handle executes (or replays) one request. A request carrying trace
// identity continues the caller's span tree (StartRemoteOp), so the serving
// span — and everything the handler nests under it — stitches into one
// cross-process tree; an untraced request is observed exactly as before. The
// serving span, and so the ctx handed to the Handler, descends from base: the
// TCP server's worker pool uses it to thread the requesting connection's
// Peer — ClientID plus push capability — down to services that grant leases.
func (e *Endpoint) Handle(base context.Context, req Request) Response {
	ctx, op := e.obsRec.StartRemoteOp(base, obs.LayerRPC, req.Method, req.TraceID, req.SpanID)
	resp := e.handle(ctx, req)
	var err error
	if resp.Err != "" {
		err = errors.New(resp.Err)
	}
	op.End(err)
	return resp
}

func (e *Endpoint) handle(ctx context.Context, req Request) Response {
	e.requests.Inc()
	var call *inflightCall
	if !e.noDup {
		key := clientSeq{req.ClientID, req.Seq}
		e.mu.Lock()
		if resp, ok := e.dup.lookup(req.ClientID, req.Seq); ok {
			e.mu.Unlock()
			e.duplicates.Inc()
			return resp
		}
		if prior, ok := e.inflight[key]; ok {
			// The original is still executing; its retry waits for that
			// single execution's result.
			e.mu.Unlock()
			<-prior.done
			e.duplicates.Inc()
			return prior.resp
		}
		call = &inflightCall{done: make(chan struct{})}
		e.inflight[key] = call
		e.mu.Unlock()
	}
	body, err := e.handler(ctx, req)
	resp := Response{Seq: req.Seq, Body: body}
	if err != nil {
		resp.Err = err.Error()
	}
	if !e.noDup {
		e.mu.Lock()
		// Transient refusals are not remembered: a same-sequence retry must
		// re-execute once the refusing condition has passed.
		if err == nil || !isTransient(err) {
			e.dup.store(req.ClientID, req.Seq, resp)
		}
		delete(e.inflight, clientSeq{req.ClientID, req.Seq})
		e.mu.Unlock()
		call.resp = resp
		close(call.done)
	}
	return resp
}

// SeedDup stores a response into the duplicate-request cache without
// executing anything, keyed as if (clientID, seq) had been served here. A
// backup endpoint seeded with its primary's (client, seq, reply) triples
// answers a post-failover retransmission of an already-executed mutation
// from the cache — exactly-once across the failover. The cache retains
// body, so it must not be a pooled buffer the caller later recycles. No-op
// when the duplicate cache is disabled.
func (e *Endpoint) SeedDup(clientID, seq uint64, body []byte, errMsg string) {
	if e.noDup {
		return
	}
	e.mu.Lock()
	e.dup.store(clientID, seq, Response{Seq: seq, Body: body, Err: errMsg})
	e.mu.Unlock()
}

// Transport delivers requests to an endpoint.
type Transport interface {
	Send(Request) (Response, error)
}

// DeadlineTransport is implemented by transports that can bound one send
// with an absolute attempt deadline. The Client computes the deadline fresh
// for every attempt, so a retry never inherits the previous attempt's
// expired deadline.
type DeadlineTransport interface {
	SendWithDeadline(Request, time.Time) (Response, error)
}

// FaultConfig injects network faults into the in-process transport.
type FaultConfig struct {
	// DropProb is the probability a message (request or its response) is
	// lost; the caller sees ErrDropped and retries.
	DropProb float64
	// DupProb is the probability the request is delivered twice before the
	// response returns.
	DupProb float64
	// Seed makes the injection deterministic.
	Seed int64
}

// InProc is an in-process transport with optional fault injection.
type InProc struct {
	ep  *Endpoint
	mu  sync.Mutex
	rng *rand.Rand
	cfg FaultConfig
	inj *fault.Injector
}

// NewInProc connects to ep with the given fault configuration.
func NewInProc(ep *Endpoint, cfg FaultConfig) *InProc {
	return &InProc{ep: ep, rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

var (
	_ Transport         = (*InProc)(nil)
	_ DeadlineTransport = (*InProc)(nil)
)

// SetInjector attaches a fault injector consulted at PtSend on every send.
func (t *InProc) SetInjector(in *fault.Injector) {
	t.mu.Lock()
	t.inj = in
	t.mu.Unlock()
}

// Send delivers the request, possibly duplicating or dropping it.
func (t *InProc) Send(req Request) (Response, error) {
	return t.send(req, time.Time{})
}

// SendWithDeadline is Send bounded by an absolute deadline: an injected
// delay that would run past the deadline still delivers the request (the
// server executes it) but the response is lost, exactly like a network whose
// reply outlives the caller's patience.
func (t *InProc) SendWithDeadline(req Request, deadline time.Time) (Response, error) {
	return t.send(req, deadline)
}

func (t *InProc) send(req Request, deadline time.Time) (Response, error) {
	t.mu.Lock()
	drop := t.rng.Float64() < t.cfg.DropProb
	dup := t.rng.Float64() < t.cfg.DupProb
	inj := t.inj
	t.mu.Unlock()
	if err := inj.Err(PtSend); err != nil {
		return Response{}, errors.Join(ErrDropped, err)
	}
	if d := inj.Delay(PtSend); d > 0 {
		if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
			t.ep.Handle(context.Background(), req)
			return Response{}, fmt.Errorf("rpc: attempt deadline exceeded: %w", ErrDropped)
		}
		time.Sleep(d)
	}
	if dup {
		// The network delivered an extra copy; its response is lost.
		t.ep.Handle(context.Background(), req)
	}
	if drop {
		return Response{}, ErrDropped
	}
	return t.ep.Handle(context.Background(), req), nil
}

// Client issues requests over a transport with retries; combined with the
// endpoint's duplicate cache, Call is exactly-once with respect to effects.
type Client struct {
	t        Transport
	clientID uint64
	retried  *metrics.Counter // metrics.RPCRetries
	retries  int

	mu             sync.Mutex
	seq            uint64
	attemptTimeout time.Duration
	retryOn        func(*ServiceError) bool
}

// Retriable service-error backoff bounds: the first retry waits
// retryOnBackoffMin, doubling up to retryOnBackoffMax — together long
// enough within a default retry budget for a backup's promotion watchdog to
// fire, or for a recalled lease holder that never acknowledges to be broken.
const (
	retryOnBackoffMin = 5 * time.Millisecond
	retryOnBackoffMax = 100 * time.Millisecond
)

// SetRetryOn makes service errors matching pred retriable: Call releases
// the reply, backs off, and re-sends under the same sequence number, so the
// duplicate cache still guarantees at-most-one execution. pred runs before
// the retry and may redirect it (the cluster router rebinds its transport
// on "not primary"). Non-matching service errors return immediately.
func (c *Client) SetRetryOn(pred func(*ServiceError) bool) {
	c.mu.Lock()
	c.retryOn = pred
	c.mu.Unlock()
}

// NewClient creates a client with the given identity. retries bounds the
// number of resends after a lost message (default 10).
func NewClient(t Transport, clientID uint64, retries int, met *metrics.Set) *Client {
	if retries <= 0 {
		retries = 10
	}
	return &Client{t: t, clientID: clientID, retries: retries, retried: met.Counter(metrics.RPCRetries)}
}

// callerOwnsBodies is implemented by transports whose response bodies are
// exclusively owned by the caller once Call returns — nothing else (no
// cache, no other goroutine) retains the slice.
type callerOwnsBodies interface{ callerOwnsBodies() bool }

// ReleaseBody returns a response body obtained from Call to the wire buffer
// free lists, when the transport hands out caller-owned bodies. The TCP
// transport does (each response body is decoded into its own buffer); the
// in-process transport does not — its bodies alias the server's duplicate
// cache — and for it ReleaseBody is a no-op. Callers must not touch the
// slice afterwards.
func (c *Client) ReleaseBody(body []byte) {
	if t, ok := c.t.(callerOwnsBodies); ok && t.callerOwnsBodies() {
		Recycle(body)
	}
}

// SetAttemptTimeout bounds each individual send attempt when the transport
// supports deadlines (DeadlineTransport); an attempt that outlasts it fails
// as ErrDropped and is retried. Zero (the default) leaves sends unbounded.
// The deployed clients derive it from what they already hold (the cluster
// package's backup client and router).
func (c *Client) SetAttemptTimeout(d time.Duration) {
	c.mu.Lock()
	c.attemptTimeout = d
	c.mu.Unlock()
}

// Call invokes method with the encoded body, retrying lost messages.
// Service-level failures are returned as *ServiceError. The request is
// stamped with the trace identity of the span active in ctx, so the serving
// endpoint continues the same span tree; with no span in ctx — tracing off
// — that is one context lookup and nothing on the wire.
func (c *Client) Call(ctx context.Context, method string, body []byte) ([]byte, error) {
	sp := obs.FromContext(ctx)
	c.mu.Lock()
	c.seq++
	req := Request{ClientID: c.clientID, Seq: c.seq, Method: method, Body: body,
		TraceID: sp.TraceID(), SpanID: sp.SpanID()}
	timeout := c.attemptTimeout
	retryOn := c.retryOn
	c.mu.Unlock()
	dt, hasDeadline := c.t.(DeadlineTransport)
	var lastErr error
	backoff := simclock.Backoff{Min: retryOnBackoffMin, Max: retryOnBackoffMax}
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.retried.Inc()
		}
		var resp Response
		var err error
		if timeout > 0 && hasDeadline {
			// The attempt deadline is computed fresh here, inside the retry
			// loop: a retry issued after the first attempt timed out gets its
			// own full window, rather than inheriting an already-expired
			// deadline and failing instantly forever.
			resp, err = dt.SendWithDeadline(req, time.Now().Add(timeout))
		} else {
			resp, err = c.t.Send(req)
		}
		if err != nil {
			if errors.Is(err, ErrDropped) {
				lastErr = err
				continue
			}
			return nil, err
		}
		if resp.Err != "" {
			se := &ServiceError{Method: method, Message: resp.Err}
			if retryOn != nil && attempt < c.retries && retryOn(se) {
				// A refusal the server marked as passing (a backup not yet
				// promoted, a recall in flight): drop the reply, back off,
				// and resend the same sequence number.
				lastErr = se
				c.ReleaseBody(resp.Body)
				_ = backoff.Wait(context.Background()) // cannot fail: Background is never done
				continue
			}
			return resp.Body, se
		}
		return resp.Body, nil
	}
	return nil, fmt.Errorf("rpc: %s failed after %d retries: %w", method, c.retries, lastErr)
}

// ServiceError is an application-level failure returned by the remote
// handler.
type ServiceError struct {
	Method  string
	Message string
}

// Error implements error.
func (e *ServiceError) Error() string { return fmt.Sprintf("rpc: %s: %s", e.Method, e.Message) }
