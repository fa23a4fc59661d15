package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/router"
	"repro/pktbuf/serve/wire"
)

// Client is a data-plane client for a pktbufd server: it handshakes
// for a set of flows, submits cells, and consumes deliveries on a
// background reader. Submit respects the server-granted in-system
// window, so a Client that is the only writer for its flows is never
// window-rejected; ingress-ring rejects (a burst outrunning the
// serving loop) surface asynchronously through Rejects.
//
// A Client built with DialWith and a Retry policy survives connection
// failures: it reconnects with jittered exponential backoff and
// resumes its session, reconciling counters with the server so that
// every submitted cell is delivered exactly once per queue —
// redeliveries it already holds are discarded, deliveries the server
// lost are re-synthesized, and submissions the server never saw are
// resubmitted. Fail-fast reject codes (bad_flow, session_unknown)
// abort the retry loop with the matching typed error.
//
// Submit may be called from one goroutine at a time; the accessors
// are safe from any goroutine.
type Client struct {
	cfg DialConfig

	// wmu guards the wire writer and its connection as a pair; a
	// reconnect swaps both together.
	wmu sync.Mutex
	w   *wire.Writer
	wnc net.Conn

	nc net.Conn // current conn (read side); swapped on reconnect

	flows   []pktbuf.Queue
	welcome wire.Welcome
	session uint64

	// OnDeliver, if set before the first Submit, observes every
	// delivered cell in order, with per-queue sequence numbers
	// reconstructed by counting (deliveries are strictly sequential per
	// VOQ). Redeliveries discarded during a resume are not observed —
	// the callback sees each cell exactly once. Called from the reader
	// goroutine.
	OnDeliver func(pktbuf.Cell)

	mu          sync.Mutex
	cond        *sync.Cond
	inFlight    int
	submitted   uint64
	delivered   uint64
	rejected    uint64
	rejects     []wire.Reject
	perQueue    map[pktbuf.Queue]uint64 // cells received, per queue
	submitPQ    map[pktbuf.Queue]uint64 // cells submitted, per queue
	dedup       map[pktbuf.Queue]uint64 // redeliveries left to discard
	err         error
	draining    bool
	byeOK       bool
	byeSent     bool
	reconnectng bool
	// resubmitting counts live resubmission goroutines; Bye waits them
	// out so the final Bye frame cannot overtake a replayed cell.
	resubmitting int
	epochN       uint64 // bumped per successful (re)connect
	resumes      uint64
	pingStop     chan struct{}

	rng *rand.Rand // reader goroutine only

	done chan struct{}
}

// Retry configures automatic reconnection with session resumption.
type Retry struct {
	// Attempts bounds consecutive failed reconnect attempts before the
	// Client gives up (0 disables reconnection entirely).
	Attempts int
	// Base and Max bound the jittered exponential backoff between
	// attempts (defaults 50ms and 5s). Each delay is drawn uniformly
	// from [d/2, d] with d doubling from Base up to Max.
	Base, Max time.Duration
	// Seed seeds the jitter source; zero uses a time-derived seed.
	Seed int64
}

// DialConfig describes a resilient client connection.
type DialConfig struct {
	// Addr is the server's data-plane TCP address (ignored when Dialer
	// is set).
	Addr string
	// Flows is the number of VOQs to handshake for.
	Flows int
	// KeepAlive mirrors Config.KeepAlive on the client side: probe an
	// idle server every KeepAlive and treat two silent intervals as a
	// dead connection (which the Retry policy then resumes).
	KeepAlive time.Duration
	// Retry enables reconnection; the zero value disables it.
	Retry Retry
	// Dialer overrides the TCP dial — fault-injection harnesses point
	// it at a wrapped network, retrying clients at a moved server.
	Dialer func() (net.Conn, error)
}

// ClientStats is a Client counter snapshot.
type ClientStats struct {
	// Submitted counts cells handed to Submit; Delivered counts cells
	// returned by the server; Rejected counts cells the server refused
	// (see Rejects for the frames). Discarded redeliveries after a
	// resume are not double-counted in Delivered.
	Submitted, Delivered, Rejected uint64
	// InFlight is cells currently charged against the window.
	InFlight int
	// Resumes counts successful session resumptions.
	Resumes uint64
}

// Dial connects to a pktbufd data-plane address and handshakes for
// the given number of flows, without a retry policy.
func Dial(addr string, flows int) (*Client, error) {
	return DialWith(DialConfig{Addr: addr, Flows: flows})
}

// DialWith connects according to cfg. With a Retry policy the initial
// dial and handshake are retried with the same backoff as later
// reconnects; fail-fast rejects (bad_flow) abort immediately.
func DialWith(cfg DialConfig) (*Client, error) {
	if cfg.Dialer == nil {
		addr := cfg.Addr
		cfg.Dialer = func() (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
			}
			return nc, nil
		}
	}
	rng := newJitter(cfg.Retry.Seed)
	attempts := cfg.Retry.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff(rng, cfg.Retry, attempt-1))
		}
		nc, err := cfg.Dialer()
		if err != nil {
			lastErr = err
			continue
		}
		c, err := newClient(nc, cfg, rng)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if resumeFatal(err) {
			break
		}
	}
	return nil, lastErr
}

// NewClient handshakes over an existing connection (which the Client
// then owns), without a retry policy.
func NewClient(nc net.Conn, flows int) (*Client, error) {
	return newClient(nc, DialConfig{Flows: flows}, newJitter(0))
}

func newJitter(seed int64) *rand.Rand {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return rand.New(rand.NewSource(seed))
}

// backoff draws the jittered exponential delay for the given attempt.
func backoff(rng *rand.Rand, r Retry, attempt int) time.Duration {
	base, max := r.Base, r.Max
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

func newClient(nc net.Conn, cfg DialConfig, rng *rand.Rand) (*Client, error) {
	c := &Client{
		cfg:      cfg,
		nc:       nc,
		wnc:      nc,
		w:        wire.NewWriter(nc),
		perQueue: make(map[pktbuf.Queue]uint64, cfg.Flows),
		submitPQ: make(map[pktbuf.Queue]uint64, cfg.Flows),
		dedup:    make(map[pktbuf.Queue]uint64),
		rng:      rng,
		done:     make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	if err := c.w.WriteFrame(wire.THello, wire.Hello{Flows: cfg.Flows}.AppendTo(nil)); err != nil {
		nc.Close()
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		nc.Close()
		return nil, err
	}
	r := wire.NewReader(nc)
	c.armDeadline()
	t, p, err := r.Next()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if t == wire.TReject {
		rej, perr := wire.ParseReject(p)
		nc.Close()
		if perr != nil {
			return nil, perr
		}
		return nil, fmt.Errorf("serve: handshake rejected: %w", CodeErr(rej.Code))
	}
	if t != wire.TWelcome {
		nc.Close()
		return nil, fmt.Errorf("%w: handshake got %v, want Welcome", wire.ErrFrame, t)
	}
	if c.welcome, err = wire.ParseWelcome(p); err != nil {
		nc.Close()
		return nil, err
	}
	c.session = c.welcome.Session
	t, p, err = r.Next()
	if err != nil || t != wire.TFlows {
		nc.Close()
		if err == nil {
			err = fmt.Errorf("%w: handshake got %v, want Flows", wire.ErrFrame, t)
		}
		return nil, err
	}
	if err := wire.DecodeCells(p, wire.Deliveries, func(q pktbuf.Queue) error {
		c.flows = append(c.flows, q)
		c.perQueue[q] = 0
		return nil
	}); err != nil {
		nc.Close()
		return nil, err
	}
	c.startPinger()
	go c.readLoop(r)
	return c, nil
}

// armDeadline extends the read deadline to two keepalive intervals.
func (c *Client) armDeadline() {
	if c.cfg.KeepAlive <= 0 {
		return
	}
	c.mu.Lock()
	nc := c.nc
	c.mu.Unlock()
	nc.SetReadDeadline(time.Now().Add(2 * c.cfg.KeepAlive))
}

// startPinger (re)starts the keepalive prober for the current
// connection epoch. Callers must not hold mu... it takes it.
func (c *Client) startPinger() {
	if c.cfg.KeepAlive <= 0 {
		return
	}
	stop := make(chan struct{})
	c.mu.Lock()
	if c.pingStop != nil {
		close(c.pingStop)
	}
	c.pingStop = stop
	c.mu.Unlock()
	go func() {
		t := time.NewTicker(c.cfg.KeepAlive)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-c.done:
				return
			case <-t.C:
				c.wmu.Lock()
				err := c.w.WriteFrame(wire.TPing, nil)
				if err == nil {
					err = c.w.Flush()
				}
				c.wmu.Unlock()
				if err != nil {
					return
				}
			}
		}
	}()
}

// Flows returns the VOQ ids assigned by the server.
func (c *Client) Flows() []pktbuf.Queue { return c.flows }

// Welcome returns the server-granted limits.
func (c *Client) Welcome() wire.Welcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.welcome
}

// resumable reports whether a broken connection should be resumed
// rather than failed. Callers hold mu.
func (c *Client) resumable() bool {
	return c.cfg.Retry.Attempts > 0 && c.session != 0 && !c.byeSent
}

// errServerBye is Submit's answer once the server has said Bye: the
// reader has exited, so no delivery or reject will ever return window
// credit, and waiting for it would block forever.
var errServerBye = fmt.Errorf("serve: server closed the session: %w", io.EOF)

// Submit sends one Submit frame carrying qs, blocking first until the
// in-system window has room for the whole burst (so a single-writer
// client never trips CodeWindowFull) and until any in-progress
// reconnect completes. It fails fast once the server is draining or
// the connection is irrecoverably broken. Bursts larger than the
// window are an error.
//
// On a resumable client a mid-write connection failure is not an
// error: the cells are accounted as submitted and the resume
// reconciliation guarantees the server ends up with exactly one copy
// of each (resubmitted if the crash swallowed them).
func (c *Client) Submit(qs []pktbuf.Queue) error {
	if len(qs) == 0 {
		return nil
	}
	c.mu.Lock()
	if len(qs) > c.welcome.Window {
		win := c.welcome.Window
		c.mu.Unlock()
		return fmt.Errorf("serve: burst of %d exceeds window %d: %w",
			len(qs), win, pktbuf.ErrBadConfig)
	}
	for c.err == nil && !c.draining && !c.byeOK &&
		(c.reconnectng || c.welcome.Window-c.inFlight < len(qs)) {
		c.cond.Wait()
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	if c.draining {
		c.mu.Unlock()
		return ErrDraining
	}
	if c.byeOK {
		c.mu.Unlock()
		return errServerBye
	}
	c.inFlight += len(qs)
	c.submitted += uint64(len(qs))
	for _, q := range qs {
		c.submitPQ[q]++
	}
	c.mu.Unlock()
	c.wmu.Lock()
	nc := c.wnc
	err := c.w.WriteCells(wire.TSubmit, wire.Arrivals, qs)
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		res := c.resumable()
		c.mu.Unlock()
		if res {
			// Kick the reader off the dead connection; reconciliation on
			// resume decides whether this burst arrived.
			nc.Close()
			return nil
		}
		c.fail(err)
		return err
	}
	return nil
}

// submitRaw writes a resubmission burst: window-gated like Submit but
// without recounting the cells (they were counted when first
// submitted). A stale epoch aborts silently — a newer reconnect owns
// reconciliation now.
func (c *Client) submitRaw(qs []pktbuf.Queue, epoch uint64) bool {
	c.mu.Lock()
	for c.err == nil && c.epochN == epoch && !c.byeOK &&
		(c.reconnectng || c.welcome.Window-c.inFlight < len(qs)) {
		c.cond.Wait()
	}
	if c.err != nil || c.epochN != epoch || c.byeOK {
		c.mu.Unlock()
		return false
	}
	c.inFlight += len(qs)
	c.mu.Unlock()
	c.wmu.Lock()
	nc := c.wnc
	err := c.w.WriteCells(wire.TSubmit, wire.Arrivals, qs)
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		nc.Close()
		return false
	}
	return true
}

// Bye announces end of submission, waits for the server to confirm
// the connection fully drained (its final Bye), and closes. A nil
// return means every submitted cell was delivered or explicitly
// rejected. Bye waits out an in-progress reconnect first; it also
// ends the retry policy — a connection lost after Bye is a failure.
func (c *Client) Bye(ctx context.Context) error {
	c.mu.Lock()
	for c.err == nil && (c.reconnectng || c.resubmitting > 0) {
		c.cond.Wait()
	}
	c.byeSent = true
	err := c.err
	nc := c.nc
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.wmu.Lock()
	err = c.w.WriteFrame(wire.TBye, nil)
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
		nc.Close()
		return err
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		nc.Close()
		return fmt.Errorf("serve: bye: %w", ctx.Err())
	}
	c.mu.Lock()
	ok := c.byeOK
	err = c.err
	c.mu.Unlock()
	nc.Close()
	if !ok && err != nil && err != io.EOF {
		return err
	}
	return nil
}

// Close drops the connection immediately.
func (c *Client) Close() error {
	c.mu.Lock()
	c.byeSent = true // no resumption after an explicit Close
	nc := c.nc
	c.mu.Unlock()
	if err := nc.Close(); err != nil {
		return fmt.Errorf("serve: close: %w", err)
	}
	return nil
}

// Stats snapshots the client counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{
		Submitted: c.submitted,
		Delivered: c.delivered,
		Rejected:  c.rejected,
		InFlight:  c.inFlight,
		Resumes:   c.resumes,
	}
}

// Received returns the per-queue count of cells received so far — the
// client-side exactly-once ledger (sequence numbers are implicit:
// queue q has received cells 0..Received(q)-1).
func (c *Client) Received(q pktbuf.Queue) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.perQueue[q]
}

// Rejects returns the Reject frames received so far. Map a reject
// onto the typed error taxonomy with CodeErr.
func (c *Client) Rejects() []wire.Reject {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.Reject, len(c.rejects))
	copy(out, c.rejects)
	return out
}

// Err returns the connection error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Draining reports whether the server announced Drain.
func (c *Client) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Done is closed when the reader goroutine exits for good (server
// Bye, retry policy exhausted, or unrecoverable failure).
func (c *Client) Done() <-chan struct{} { return c.done }

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// readLoop owns the read side across connection epochs: it consumes
// frames until the connection breaks, then — if the session is
// resumable — reconnects and carries on.
func (c *Client) readLoop(r *wire.Reader) {
	defer close(c.done)
	for {
		err := c.readFrames(r)
		if err == nil {
			return // clean server Bye
		}
		c.mu.Lock()
		res := c.resumable() && !c.draining
		c.mu.Unlock()
		if !res {
			c.fail(err)
			return
		}
		nr, rerr := c.reconnect(err)
		if rerr != nil {
			c.fail(rerr)
			return
		}
		r = nr
	}
}

// readFrames consumes one connection's frames. nil means clean Bye;
// everything else is a connection-epoch failure.
func (c *Client) readFrames(r *wire.Reader) error {
	for {
		c.armDeadline()
		t, p, err := r.Next()
		if err != nil {
			return err
		}
		switch t {
		case wire.TDeliver:
			if err := c.handleDeliver(p); err != nil {
				return err
			}
		case wire.TReject:
			rej, perr := wire.ParseReject(p)
			if perr != nil {
				return perr
			}
			c.mu.Lock()
			c.rejected += uint64(rej.Dropped)
			c.inFlight -= rej.Dropped
			c.rejects = append(c.rejects, rej)
			c.cond.Broadcast()
			c.mu.Unlock()
		case wire.TPing:
			c.wmu.Lock()
			if c.w.WriteFrame(wire.TPong, nil) == nil {
				c.w.Flush()
			}
			c.wmu.Unlock()
		case wire.TPong:
			// Liveness proven; the deadline was re-armed above.
		case wire.TDrain:
			c.mu.Lock()
			c.draining = true
			c.cond.Broadcast()
			c.mu.Unlock()
		case wire.TBye:
			c.mu.Lock()
			c.byeOK = true
			c.cond.Broadcast()
			c.mu.Unlock()
			return nil
		default:
			return fmt.Errorf("%w: unexpected %v frame from server", wire.ErrFrame, t)
		}
	}
}

// handleDeliver counts one Deliver frame's cells, discarding
// redeliveries the resume reconciliation marked as already held.
func (c *Client) handleDeliver(p []byte) error {
	return wire.DecodeCells(p, wire.Deliveries, func(q pktbuf.Queue) error {
		c.mu.Lock()
		if c.dedup[q] > 0 {
			// A redelivery of a cell received before the resume: server
			// credit returns, but the cell is already counted.
			c.dedup[q]--
			c.inFlight--
			c.cond.Broadcast()
			c.mu.Unlock()
			return nil
		}
		seq := c.perQueue[q]
		c.perQueue[q] = seq + 1
		c.delivered++
		c.inFlight--
		c.cond.Broadcast()
		c.mu.Unlock()
		if c.OnDeliver != nil {
			c.OnDeliver(pktbuf.Cell{Queue: q, Seq: seq})
		}
		return nil
	})
}

// resumeFatal reports a handshake error that retrying cannot fix.
func resumeFatal(err error) bool {
	return errors.Is(err, ErrSessionUnknown) || errors.Is(err, router.ErrBadFlow)
}

// reconnect re-dials and resumes the session with jittered
// exponential backoff, honoring the reject taxonomy: transient codes
// (draining, ingress_full) are retried, fail-fast codes
// (session_unknown, bad_flow) abort with the typed error. On success
// it returns the new connection's reader and spawns the resubmission
// of cells the server never saw.
func (c *Client) reconnect(cause error) (*wire.Reader, error) {
	c.mu.Lock()
	c.reconnectng = true
	if c.pingStop != nil {
		close(c.pingStop)
		c.pingStop = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.nc.Close()
	lastErr := cause
	for attempt := 0; attempt < c.cfg.Retry.Attempts; attempt++ {
		time.Sleep(backoff(c.rng, c.cfg.Retry, attempt))
		nc, err := c.cfg.Dialer()
		if err != nil {
			lastErr = err
			continue
		}
		r, need, err := c.resumeHandshake(nc)
		if err != nil {
			nc.Close()
			if resumeFatal(err) {
				return nil, fmt.Errorf("serve: resume: %w", err)
			}
			lastErr = err
			continue
		}
		c.mu.Lock()
		c.resumes++
		epoch := c.epochN
		c.reconnectng = false
		if len(need) > 0 {
			c.resubmitting++
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		c.startPinger()
		if len(need) > 0 {
			go func() {
				defer func() {
					c.mu.Lock()
					c.resubmitting--
					c.cond.Broadcast()
					c.mu.Unlock()
				}()
				c.resubmit(need, epoch)
			}()
		}
		return r, nil
	}
	return nil, fmt.Errorf("serve: reconnect failed after %d attempts: %w",
		c.cfg.Retry.Attempts, lastErr)
}

// resumeHandshake performs the resume exchange on a fresh connection
// and reconciles the client ledgers against the server's counters.
// It returns the per-queue resubmission counts (cells the server
// never saw).
func (c *Client) resumeHandshake(nc net.Conn) (*wire.Reader, map[pktbuf.Queue]uint64, error) {
	c.mu.Lock()
	hello := wire.Hello{Flows: len(c.flows), Session: c.session}
	acks := make([]uint64, len(c.flows))
	for i, q := range c.flows {
		acks[i] = c.perQueue[q]
	}
	c.mu.Unlock()
	w := wire.NewWriter(nc)
	if err := w.WriteFrame(wire.THello, hello.AppendTo(nil)); err != nil {
		return nil, nil, err
	}
	if err := w.WriteFrame(wire.TAcks, wire.AppendSeqs(nil, c.flows, acks)); err != nil {
		return nil, nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, nil, err
	}
	if c.cfg.KeepAlive > 0 {
		nc.SetReadDeadline(time.Now().Add(2 * c.cfg.KeepAlive))
	}
	r := wire.NewReader(nc)
	t, p, err := r.Next()
	if err != nil {
		return nil, nil, err
	}
	if t == wire.TReject {
		rej, perr := wire.ParseReject(p)
		if perr != nil {
			return nil, nil, perr
		}
		return nil, nil, fmt.Errorf("serve: resume rejected: %w", CodeErr(rej.Code))
	}
	if t != wire.TWelcome {
		return nil, nil, fmt.Errorf("%w: resume got %v, want Welcome", wire.ErrFrame, t)
	}
	wlc, err := wire.ParseWelcome(p)
	if err != nil {
		return nil, nil, err
	}
	if !wlc.Resumed || wlc.Session != c.session {
		return nil, nil, fmt.Errorf("%w: server did not resume session", wire.ErrFrame)
	}
	t, p, err = r.Next()
	if err != nil || t != wire.TSeqs {
		if err == nil {
			err = fmt.Errorf("%w: resume got %v, want Seqs", wire.ErrFrame, t)
		}
		return nil, nil, err
	}
	// Reconciliation, per queue, against (a = arrived, d = delivered
	// and gone, r = received here): discard the next max(0, r−d)
	// redeliveries, expect a−min(d,r) in-flight cells, resubmit the
	// submitted−a the server never saw.
	need := make(map[pktbuf.Queue]uint64)
	c.mu.Lock()
	for q := range c.dedup {
		delete(c.dedup, q)
	}
	inFlight := 0
	perr := wire.ParseSeqPairs(p, func(q pktbuf.Queue, a, d uint64) error {
		recv := c.perQueue[q]
		if recv > d {
			c.dedup[q] = recv - d
		}
		low := d
		if recv < low {
			low = recv
		}
		inFlight += int(a - low)
		if sub := c.submitPQ[q]; sub > a {
			need[q] = sub - a
		}
		return nil
	})
	if perr != nil {
		c.mu.Unlock()
		return nil, nil, perr
	}
	c.inFlight = inFlight
	c.welcome = wlc
	c.epochN++
	c.mu.Unlock()
	// Swap the write side last: anything written before this point went
	// to the dead socket and is covered by reconciliation.
	c.wmu.Lock()
	c.w = w
	c.wnc = nc
	c.wmu.Unlock()
	c.mu.Lock()
	c.nc = nc
	c.mu.Unlock()
	return r, need, nil
}

// resubmit replays cells the server never saw, in window-sized
// bursts. Runs concurrently with the reader (which frees window
// space) and with user Submits; cells are (queue, seq) pairs with
// sequence numbers assigned on arrival, so interleaving is harmless.
func (c *Client) resubmit(need map[pktbuf.Queue]uint64, epoch uint64) {
	c.mu.Lock()
	burstCap := c.welcome.Window
	c.mu.Unlock()
	if burstCap > 4096 {
		burstCap = 4096
	}
	burst := make([]pktbuf.Queue, 0, burstCap)
	for _, q := range c.flows {
		n := need[q]
		for n > 0 {
			burst = append(burst, q)
			n--
			if len(burst) == burstCap {
				if !c.submitRaw(burst, epoch) {
					return
				}
				burst = burst[:0]
			}
		}
	}
	if len(burst) > 0 {
		c.submitRaw(burst, epoch)
	}
}
