// Package serve is the long-lived network-facing serving layer over
// the packet-buffer engine: the batch simulator's core promoted to a
// daemon. A Server owns one pktbuf.Buffer, maps client connections to
// VOQs, and drives the engine from a single clocked serving loop that
// batches all pending ingest into TickBatch once per pass —
// fast-forwarding through idle time with the Quiescent/FastForward
// machinery, so an idle daemon burns no CPU beyond a parked goroutine.
//
// The architecture follows the event-driven decomposition the batch
// layers already use: the engine (the serving loop and its buffer),
// the ingest front-end (one reader/writer goroutine pair per
// connection, speaking the repro/pktbuf/serve/wire frame protocol),
// and the metrics/control plane (Prometheus-text /metrics, /healthz,
// graceful drain) are independent pieces that communicate through
// bounded rings and counters — never through shared buffer state.
//
// Admission control rides the module's typed error taxonomy: a burst
// that overruns a connection's bounded ingress ring is rejected with
// a Reject frame mapping to repro/pktbuf/router.ErrIngressFull, a
// connection over its in-system window maps to pktbuf.ErrBufferFull,
// and a draining server answers ErrDraining — always with a
// retry-after hint, never with a dropped goroutine or an unbounded
// queue. The serving loop itself allocates nothing in steady state:
// every per-slot structure (ingress/egress rings, the round-robin
// request scheduler, the batch conversion buffers) is preallocated at
// construction, which the package's allocation gate pins.
//
// With Config.Resumable the serving tier is crash-safe. Every
// handshake mints a session token; a connection that dies detaches
// its session instead of releasing it, and a client that reconnects
// with the token (Client does this automatically when dialed through
// DialWith with a Retry budget) is reconciled against per-queue
// arrival/delivery sequence numbers so no cell is duplicated or lost
// across the gap. Checkpoint serializes the whole server — engine
// snapshot plus session table — between serving batches;
// RestoreServer boots a successor that resumes those sessions, which
// is how a pktbufd restarted after a crash carries its clients
// through. Config.KeepAlive arms Ping/Pong probing and read
// deadlines on both sides so a silent peer surfaces as the typed
// ErrPeerTimeout instead of a goroutine parked forever. The
// internal/faultnet chaos suite pins exactly-once delivery through
// kill/restart, torn frames and blackholes under the race detector.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/router"
	"repro/pktbuf/serve/wire"
	"repro/pktbuf/trace"
)

// ErrDraining reports admission refused because the server is
// draining for shutdown.
var ErrDraining = errors.New("serve: server draining")

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("serve: server closed")

// ErrSessionUnknown reports a resume attempt naming a session token
// the server does not hold — expired, cleanly closed, or from before
// an un-checkpointed restart. Not transient: the client must start a
// fresh session.
var ErrSessionUnknown = errors.New("serve: unknown session")

// ErrPeerTimeout reports a connection reaped because the peer went
// silent past the keepalive deadline (no frames, not even a Pong, for
// two KeepAlive intervals).
var ErrPeerTimeout = errors.New("serve: peer missed keepalive deadline")

// CodeErr maps a wire backpressure code onto the module's typed error
// taxonomy, so clients dispatch rejects with errors.Is exactly like
// local engine errors: CodeIngressFull → router.ErrIngressFull,
// CodeWindowFull → pktbuf.ErrBufferFull, CodeDraining → ErrDraining,
// CodeBadFlow → router.ErrBadFlow, CodeSessionUnknown →
// ErrSessionUnknown.
func CodeErr(c wire.Code) error {
	switch c {
	case wire.CodeIngressFull:
		return router.ErrIngressFull
	case wire.CodeWindowFull:
		return pktbuf.ErrBufferFull
	case wire.CodeDraining:
		return ErrDraining
	case wire.CodeBadFlow:
		return router.ErrBadFlow
	case wire.CodeSessionUnknown:
		return ErrSessionUnknown
	}
	return fmt.Errorf("serve: unknown reject code %q: %w", c, wire.ErrFrame)
}

// Config describes a Server.
type Config struct {
	// Buffer is the engine configuration; Queues bounds the number of
	// flows servable at once.
	Buffer pktbuf.Config
	// MaxConns bounds concurrent client connections (default 128).
	MaxConns int
	// IngressRing is the per-connection ingress ring capacity in cells
	// (rounded up to a power of two, default 1024): the largest burst
	// buffered ahead of the serving loop before Submits are rejected
	// with wire.CodeIngressFull. Size it to absorb the client's frame
	// size times the worst reader-scheduling hiccup expected between
	// serving-loop passes.
	IngressRing int
	// Window is the per-connection in-system cell cap (default: the
	// buffer's request-to-delivery pipeline depth plus IngressRing, so
	// one connection can keep the pipeline full). A connection keeping
	// submitted−delivered below Window is never rejected for window
	// space; the cap also sizes the egress ring, which therefore can
	// never overflow.
	Window int
	// Batch is the serving loop's TickBatch size in slots (default
	// 256).
	Batch int
	// TickEvery paces the serving loop in wall-clock time per slot;
	// zero runs free (a slot per loop iteration, as fast as the engine
	// goes). When paced, idle wall time is crossed with FastForward
	// instead of ticking.
	TickEvery time.Duration
	// Resumable retains the session of a connection that fails without
	// a clean Bye: its flows stay allocated, its buffered cells keep
	// draining (deliveries park for the session's next connection), and
	// a client reconnecting with the session token resumes exactly
	// where it left off — no duplicate and no lost deliveries. Implied
	// by RestoreServer. Sessions that never resume hold their flows
	// until the server restarts, so leave this off for servers with
	// anonymous churning clients.
	Resumable bool
	// KeepAlive enables liveness probing on data-plane connections:
	// the server Pings an idle peer every KeepAlive and reaps
	// connections silent for two KeepAlive intervals (read deadline)
	// without a final Bye, surfacing ErrPeerTimeout in the error log. Writes get the same
	// deadline so a wedged peer cannot stall a writer goroutine
	// forever. Zero disables probing and deadlines.
	KeepAlive time.Duration
	// Record captures the per-slot stimulus the loop feeds the engine
	// as a repro/pktbuf/trace trace (Server.Trace), so a served run
	// can be replayed bit-identically through the batch sim. Recording
	// appends to a growing slice and is meant for tests and short
	// runs, not perpetual serving.
	Record bool
	// ErrorLog receives engine invariant violations and connection
	// failures (default: the log package's standard logger).
	ErrorLog *log.Logger
}

// rejectReason indexes the admission-reject counters.
type rejectReason int

const (
	rejIngressFull rejectReason = iota
	rejWindowFull
	rejDraining
	rejBadFlow
	rejReasons
)

// Server is a serving daemon instance. Construct with NewServer,
// attach listeners with Serve, and stop with Shutdown (graceful) or
// Close (immediate).
type Server struct {
	cfg    Config
	buf    *pktbuf.Buffer
	sizing pktbuf.Sizing

	mu        sync.Mutex
	conns     map[*conn]struct{}
	freeQ     []int32
	listeners map[net.Listener]struct{}
	// sessions maps tokens to live sessions (Resumable servers only).
	sessions map[uint64]*session
	// tokenFallback backs newToken if crypto/rand ever fails.
	tokenFallback uint64

	draining atomic.Bool
	closed   atomic.Bool

	// owner maps a VOQ to the connection that registered it; the
	// serving loop reads it lock-free when routing deliveries.
	owner []atomic.Pointer[conn]

	// ingestCh carries conn-activation tokens from readers to the
	// serving loop: at most one token per connection is in flight
	// (conn.armed), so the channel never blocks a reader.
	ingestCh chan *conn
	// resumeCh carries connections whose resume handshake awaits the
	// serving loop (attachResume); at most one entry per connection.
	resumeCh chan *conn
	// wakeCh pokes a parked serving loop (shutdown, drain).
	wakeCh chan struct{}
	// ckpt holds a pending checkpoint request for the serving loop,
	// which serves it between batches; the loop's steady-state cost is
	// one atomic nil-check.
	ckpt   atomic.Pointer[ckptReq]
	ckptMu sync.Mutex

	drainedOnce sync.Once
	drainedCh   chan struct{}
	loopDone    chan struct{}

	connWG sync.WaitGroup

	// Serving-loop private state (touched only by the loop goroutine;
	// see loop.go).
	ready      []int32         //pktbuf:owner=Server.loop
	readyCount int             //pktbuf:owner=Server.loop
	inRing     []bool          //pktbuf:owner=Server.loop
	rrRing     []int32         //pktbuf:owner=Server.loop
	rrHead     int             //pktbuf:owner=Server.loop
	rrLen      int             //pktbuf:owner=Server.loop
	active     []*conn         //pktbuf:owner=Server.loop
	parked     []int32         //pktbuf:owner=Server.loop
	actCur     int             //pktbuf:owner=Server.loop
	inBatch    []pktbuf.Input  //pktbuf:owner=Server.loop
	outBatch   []pktbuf.Output //pktbuf:owner=Server.loop
	dirty      []*conn         //pktbuf:owner=Server.loop
	rec        trace.Trace     //pktbuf:owner=Server.loop
	epoch      time.Time       //pktbuf:owner=Server.loop

	// Published telemetry (statsMu): the loop refreshes these once per
	// batch so the metrics plane never touches live engine state.
	statsMu     sync.Mutex
	pub         pktbuf.Stats
	pubSlots    uint64
	hist        histogram
	tickErrs    uint64
	lastTickErr string

	rejects  [rejReasons]atomic.Uint64
	admitted atomic.Uint64
	connG    atomic.Int64
	flowG    atomic.Int64
}

// NewServer builds the engine, preallocates every serving-loop
// structure, and starts the loop (parked until ingest arrives).
// Rejected configurations return errors matching pktbuf.ErrBadConfig.
func NewServer(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	go s.loop()
	return s, nil
}

// newServer is NewServer without starting the loop goroutine, so
// tests can drive serveOnce synchronously.
func newServer(cfg Config) (*Server, error) {
	buf, err := pktbuf.New(cfg.Buffer)
	if err != nil {
		return nil, err
	}
	return newServerWith(cfg, buf)
}

// newServerWith builds a Server around an existing engine (freshly
// constructed, or reconstructed by RestoreServer).
func newServerWith(cfg Config, buf *pktbuf.Buffer) (*Server, error) {
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 128
	}
	if cfg.MaxConns < 0 {
		return nil, fmt.Errorf("%w: serve: MaxConns must not be negative", pktbuf.ErrBadConfig)
	}
	if cfg.IngressRing == 0 {
		cfg.IngressRing = 1024
	}
	if cfg.Batch == 0 {
		cfg.Batch = 256
	}
	if cfg.IngressRing < 0 || cfg.Window < 0 || cfg.Batch < 0 || cfg.TickEvery < 0 || cfg.KeepAlive < 0 {
		return nil, fmt.Errorf("%w: serve: negative IngressRing/Window/Batch/TickEvery/KeepAlive", pktbuf.ErrBadConfig)
	}
	sizing := buf.Sizing()
	if cfg.Window == 0 {
		// One connection can keep the whole request→delivery pipeline
		// full plus a ring's worth of burst.
		cfg.Window = sizing.DelaySlots + cfg.IngressRing
	}
	if cfg.ErrorLog == nil {
		cfg.ErrorLog = log.Default()
	}
	q := cfg.Buffer.Queues
	s := &Server{
		cfg:       cfg,
		buf:       buf,
		sizing:    sizing,
		conns:     make(map[*conn]struct{}),
		freeQ:     make([]int32, 0, q),
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[uint64]*session),
		owner:     make([]atomic.Pointer[conn], q),
		ingestCh:  make(chan *conn, cfg.MaxConns+1),
		resumeCh:  make(chan *conn, cfg.MaxConns+1),
		wakeCh:    make(chan struct{}, 1),
		drainedCh: make(chan struct{}),
		loopDone:  make(chan struct{}),
		ready:     make([]int32, q),
		inRing:    make([]bool, q),
		rrRing:    make([]int32, q),
		active:    make([]*conn, 0, cfg.MaxConns+1),
		parked:    make([]int32, q),
		inBatch:   make([]pktbuf.Input, cfg.Batch),
		outBatch:  make([]pktbuf.Output, cfg.Batch),
		dirty:     make([]*conn, 0, cfg.MaxConns+1),
	}
	// Low queue ids are handed out first.
	for i := q - 1; i >= 0; i-- {
		s.freeQ = append(s.freeQ, int32(i))
	}
	return s, nil
}

// Config returns the normalized configuration (defaults resolved).
func (s *Server) Config() Config { return s.cfg }

// Sizing returns the engine's as-built structure sizes.
func (s *Server) Sizing() pktbuf.Sizing { return s.sizing }

// Serve accepts data-plane connections on lis until the listener
// fails or the server shuts down; it returns ErrServerClosed on clean
// shutdown. Multiple listeners may be served concurrently.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() || s.draining.Load() {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	s.listeners[lis] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, lis)
		s.mu.Unlock()
	}()
	for {
		nc, err := lis.Accept()
		if err != nil {
			if s.closed.Load() || s.draining.Load() {
				return ErrServerClosed
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		s.mu.Lock()
		over := len(s.conns) >= s.cfg.MaxConns || s.draining.Load()
		if !over {
			c := newConn(s, nc)
			s.conns[c] = struct{}{}
			s.connWG.Add(2)
			go c.readLoop()
			go c.writeLoop()
			s.connG.Add(1)
		}
		s.mu.Unlock()
		if over {
			// Over the connection cap (or draining): refuse before the
			// handshake rather than queueing unboundedly.
			nc.Close()
		}
	}
}

// wakeLoop pokes a parked serving loop.
func (s *Server) wakeLoop() {
	select {
	case s.wakeCh <- struct{}{}:
	default:
	}
}

// byeGrace is how long Shutdown waits, once the engine has drained,
// for a connection's client to answer Drain with Bye before it stops
// reading and sends the final Bye anyway.
const byeGrace = 250 * time.Millisecond

// Shutdown drains gracefully: stop accepting connections and cells
// (further Submits are rejected with wire.CodeDraining), announce
// Drain to every client, run the engine until every admitted cell has
// been delivered and the buffer is quiescent, then confirm each
// connection with a final Bye and close it. A connection gets its
// final Bye after its client's own Bye (Client sends one in answer to
// Drain) or EOF, so every Submit the client sent is delivered or
// rejected first; a peer that says neither gets it anyway once
// byeGrace (or two KeepAlive intervals, if longer) has passed since
// the engine drained. It returns ctx's error (after an immediate
// Close) if the context expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.sendCtrl(wire.TDrain, nil)
	}
	s.wakeLoop()
	select {
	case <-s.drainedCh:
	case <-ctx.Done():
		s.Close()
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
	// Engine drained: every admitted cell is in an egress ring or
	// already on the wire. Ask the writers to flush; each confirms with
	// Bye and closes once its reader has seen the client's Bye or EOF,
	// or has given up waiting for them.
	grace := max(byeGrace, 2*s.cfg.KeepAlive)
	s.mu.Lock()
	conns = conns[:0]
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.closing.Store(true)
		c.endReads(grace)
		c.wakeWriter()
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.Close()
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
	s.closed.Store(true)
	s.wakeLoop()
	<-s.loopDone
	return nil
}

// Close stops immediately: listeners and connections are torn down
// without draining. Cells still in flight are dropped. Close is
// idempotent.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.closed.Store(true)
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.nc.Close()
		c.wakeWriter()
	}
	s.wakeLoop()
	<-s.loopDone
	s.connWG.Wait()
	return nil
}

// BufferStats returns the engine statistics snapshot the serving loop
// last published (refreshed once per batch). Safe to call from any
// goroutine at any time; it never touches live engine state.
func (s *Server) BufferStats() pktbuf.Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.pub
}

// Slots returns the engine's published slot clock.
func (s *Server) Slots() uint64 {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.pubSlots
}

// AdmissionStats aggregates the ingest front-end counters.
type AdmissionStats struct {
	// Admitted counts cells accepted into ingress rings.
	Admitted uint64
	// RejectedIngressFull, RejectedWindowFull, RejectedDraining and
	// RejectedBadFlow count rejected cells by backpressure code.
	RejectedIngressFull, RejectedWindowFull uint64
	RejectedDraining, RejectedBadFlow       uint64
	// Conns and Flows are the current registration gauges.
	Conns, Flows int
}

// Rejected sums every reject counter.
func (a AdmissionStats) Rejected() uint64 {
	return a.RejectedIngressFull + a.RejectedWindowFull + a.RejectedDraining + a.RejectedBadFlow
}

// Admission returns the ingest front-end counters.
func (s *Server) Admission() AdmissionStats {
	return AdmissionStats{
		Admitted:            s.admitted.Load(),
		RejectedIngressFull: s.rejects[rejIngressFull].Load(),
		RejectedWindowFull:  s.rejects[rejWindowFull].Load(),
		RejectedDraining:    s.rejects[rejDraining].Load(),
		RejectedBadFlow:     s.rejects[rejBadFlow].Load(),
		Conns:               int(s.connG.Load()),
		Flows:               int(s.flowG.Load()),
	}
}

// Trace returns the recorded per-slot stimulus (Config.Record) once
// the serving loop has stopped — after Shutdown or Close — and nil
// before that: the recording belongs to the loop while it runs.
// Replaying the trace through a repro/pktbuf/sim Runner against an
// identically configured buffer reproduces the served run's engine
// statistics bit-identically (FastForwardedSlots aside, as always).
func (s *Server) Trace() *trace.Trace {
	select {
	case <-s.loopDone:
		return &s.rec //pktbuf:allow singlewriter loop has exited; loopDone close happens-before this read
	default:
		return nil
	}
}
