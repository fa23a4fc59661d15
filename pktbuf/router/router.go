// Package router is the public concurrent router engine: the paper's
// system context (Figure 1) promoted to the API surface. An Engine is
// an input-queued router in which every input line card carries its
// own VOQ packet buffer (a pktbuf.Buffer shard), fed by the cell
// segmentation layer (repro/pktbuf/packet) and drained by an
// iSLIP-style request-grant-accept fabric scheduler; output ports
// reassemble cells into packets.
//
// The engine is sharded for concurrency: each input port's buffer
// shard is advanced by a dedicated worker goroutine, and the iSLIP
// request-grant-accept exchange is the only synchronization barrier —
// the "serialize only at the narrow bridge" discipline. Every slot
// runs through an epoch plan: the coordinator schedules up to
// Config.EpochSlots = K slots of matchings in one pass against
// analytically predicted request rows, and the workers execute the
// whole plan between two synchronizations, so coordination cost per
// slot falls ~K× (K = 1 is one barrier per slot). Port ticks touch
// only port-local state, each port validates the plan against its own
// buffer before every slot after the first, and egress is collected
// in slot-major, input-port order, so the engine is deterministic and
// bit-identical for every Workers and EpochSlots setting; the test
// suite pins it against a serial one-slot-at-a-time oracle (see the
// README's "Epoch batching" section for the design and measured
// trade-offs).
//
// A minimal session:
//
//	eng, err := router.New(router.Config{Ports: 8, Buffer: pktbuf.Config{
//	    LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256}})
//	defer eng.Close()
//	eng.Offer(0, packet.Packet{Flow: eng.VOQ(3, 0), Payload: body})
//	egress, err := eng.StepBatch(1000, nil)   // or Step() slot by slot
//
// The engine is single-driver: Offer, Step, StepBatch and Close must
// be called from one goroutine; the workers parallelize the inside of
// a slot, not the callers. Errors are typed sentinels (ErrIngressFull,
// ErrBadPort, ErrBadFlow, ErrClosed) matched with errors.Is; config
// rejections wrap pktbuf.ErrBadConfig.
package router

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/facade"
	ipacket "repro/internal/packet"
	irouter "repro/internal/router"
	"repro/pktbuf"
	"repro/pktbuf/packet"
)

// Errors returned by the engine, matched with errors.Is. Config
// rejections from New wrap pktbuf.ErrBadConfig instead.
var (
	// ErrIngressFull reports that an Offer would exceed the port's
	// pre-segmentation cell backlog (Config.IngressCap).
	ErrIngressFull = irouter.ErrIngressFull
	// ErrBadPort reports a port index outside [0, Config.Ports).
	ErrBadPort = irouter.ErrBadPort
	// ErrBadFlow reports a packet flow outside [0, Ports×Classes).
	ErrBadFlow = irouter.ErrBadFlow
	// ErrClosed reports use of an engine after Close.
	ErrClosed = irouter.ErrClosed
	// ErrEpochDiverged reports that epoch execution diverged from
	// its plan with shards
	// already past the divergence point, leaving the engine torn; the
	// egress returned alongside it is the valid committed prefix.
	// Reachable only after a buffer invariant violation — in healthy
	// states the epoch planner's predictions are exact.
	ErrEpochDiverged = irouter.ErrEpochDiverged
)

// Config describes the router engine.
type Config struct {
	// Ports is the number of input (= output) ports.
	Ports int
	// Classes is the number of service classes (default 1); each input
	// buffer holds Ports×Classes VOQs (§2: "Each logical queue
	// corresponds to an output line interface and a class of
	// service").
	Classes int
	// Buffer is the per-input packet buffer template. Its Queues field
	// is overwritten with Ports×Classes.
	Buffer pktbuf.Config
	// SchedulerIterations is the number of iSLIP iterations per slot
	// (default 1; more iterations converge closer to a maximal
	// matching).
	SchedulerIterations int
	// IngressCap bounds each input's pre-segmentation cell backlog
	// (0 = a generous default of 4096 cells).
	IngressCap int
	// Workers selects the sharding: 0 runs one worker goroutine per
	// port (the default), 1 runs every port in place on the calling
	// goroutine with no worker goroutines, and 2..Ports-1 stripes the
	// ports across that many workers. Every setting produces
	// bit-identical results.
	Workers int
	// EpochSlots is the speculation window K of the engine: StepBatch
	// runs as a sequence of epochs of up to K slots, each planned in
	// one serialized iSLIP pass and executed by the workers between a
	// single pair of synchronizations. 0 or 1 plans one slot per epoch
	// (one barrier per slot); larger K amortizes the barrier ~K×
	// (clamped to 4096). Every setting produces bit-identical egress
	// and Stats; only coordination cost changes.
	EpochSlots int
}

// Egress is one packet leaving the router.
type Egress struct {
	// Output is the egress port.
	Output int
	// Input is the port the packet entered on.
	Input int
	// Packet is the reassembled packet (Flow = output×Classes+class,
	// as offered). Its payload lives in the engine's egress arena: all
	// egress from one Step or StepBatch call stays valid until the
	// next such call, so callers that retain packets across steps must
	// copy the payload.
	Packet packet.Packet
}

// Stats aggregates router-level counters.
type Stats struct {
	// OfferedPackets / DeliveredPackets count whole packets.
	OfferedPackets, DeliveredPackets uint64
	// SwitchedCells counts cells moved through the fabric.
	SwitchedCells uint64
	// Matches counts input-output matches made by the scheduler.
	Matches uint64
	// Slots counts slots stepped.
	Slots uint64
}

// Engine is the composed, sharded router.
type Engine struct {
	inner     *irouter.Engine
	cfg       Config
	scratch   []irouter.Egress
	egOut     []Egress
	obScratch []ipacket.Packet
}

// New builds an engine. Rejected configurations (including buffer
// template rejections) return errors matching pktbuf.ErrBadConfig.
func New(cfg Config) (*Engine, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("%w: router: Ports must be positive, got %d", pktbuf.ErrBadConfig, cfg.Ports)
	}
	if cfg.Classes < 0 {
		return nil, fmt.Errorf("%w: router: Classes must not be negative, got %d", pktbuf.ErrBadConfig, cfg.Classes)
	}
	if cfg.Classes == 0 {
		cfg.Classes = 1
	}
	buf := cfg.Buffer
	buf.Queues = cfg.Ports * cfg.Classes
	cc, err := facade.CoreConfig(buf)
	if err != nil {
		return nil, err
	}
	inner, err := irouter.NewEngine(irouter.Config{
		Ports:               cfg.Ports,
		Classes:             cfg.Classes,
		Buffer:              cc,
		SchedulerIterations: cfg.SchedulerIterations,
		IngressCap:          cfg.IngressCap,
		EpochSlots:          cfg.EpochSlots,
	}, cfg.Workers)
	if err != nil {
		return nil, err
	}
	norm := inner.Config()
	cfg.SchedulerIterations = norm.SchedulerIterations
	cfg.IngressCap = norm.IngressCap
	cfg.EpochSlots = norm.EpochSlots
	cfg.Workers = inner.Workers()
	return &Engine{inner: inner, cfg: cfg}, nil
}

// Config returns the normalized configuration (defaults resolved; the
// Buffer field is the template as passed, with Queues overwritten).
func (e *Engine) Config() Config {
	cfg := e.cfg
	cfg.Buffer.Queues = cfg.Ports * cfg.Classes
	return cfg
}

// VOQ maps (output, class) to the flow id used when offering packets.
// Out-of-range arguments return pktbuf.None, which Offer rejects with
// ErrBadFlow — an in-range class can never silently alias another
// output's VOQ.
func (e *Engine) VOQ(output, class int) pktbuf.Queue {
	if output < 0 || output >= e.cfg.Ports || class < 0 || class >= e.cfg.Classes {
		return pktbuf.None
	}
	return pktbuf.Queue(output*e.cfg.Classes + class)
}

// Offer enqueues a packet at an input port. The packet's Flow must be
// a valid VOQ id (use VOQ to build it); its payload is aliased by the
// segmented cells until the packet leaves the router. Offer must not
// be called concurrently with Step or StepBatch.
func (e *Engine) Offer(port int, p packet.Packet) error {
	return e.inner.Offer(port, ipacket.Packet{Flow: cell.QueueID(p.Flow), Payload: p.Payload})
}

// OfferBatch enqueues packets at an input port in one validated pass:
// the port and engine state are checked once, the accepted prefix is
// sized against the ingress budget up front, and its cells are
// segmented in a single run. It returns the number of packets
// accepted and the error that stopped the run (ErrIngressFull when
// the backlog fills, ErrBadFlow on an invalid flow id); the remaining
// packets are not offered.
func (e *Engine) OfferBatch(port int, ps []packet.Packet) (int, error) {
	e.obScratch = e.obScratch[:0]
	for k := range ps {
		e.obScratch = append(e.obScratch, ipacket.Packet{Flow: cell.QueueID(ps[k].Flow), Payload: ps[k].Payload})
	}
	n, err := e.inner.OfferBatch(port, e.obScratch)
	for k := range e.obScratch {
		e.obScratch[k] = ipacket.Packet{} // drop payload references
	}
	return n, err
}

// Step advances the engine one slot: one ingress cell per port, one
// iSLIP matching, one concurrent buffer tick per port shard, and
// in-order output reassembly. It returns the packets completed this
// slot; the slice and the packet payloads are valid until the next
// Step or StepBatch call (see Egress).
func (e *Engine) Step() ([]Egress, error) {
	out, err := e.StepBatch(1, e.egOut[:0])
	e.egOut = out
	return out, err
}

// StepBatch advances up to slots slots, appending every completed
// packet to out and returning the extended slice — the batch entry
// point of the sharded fast path: with enough capacity in out it
// allocates nothing. Egress payloads from the whole batch stay valid
// until the next Step or StepBatch call. On a slot error it stops
// after the offending slot (whose egress is already appended) and
// returns the error.
func (e *Engine) StepBatch(slots int, out []Egress) ([]Egress, error) {
	var stepErr error
	e.scratch, stepErr = e.inner.StepBatch(slots, e.scratch[:0])
	for _, g := range e.scratch {
		out = append(out, Egress{
			Output: g.Output,
			Input:  g.Input,
			Packet: packet.Packet{Flow: pktbuf.Queue(g.Packet.Flow), Payload: g.Packet.Payload},
		})
	}
	return out, stepErr
}

// IngressBacklog returns the number of segmented cells waiting to
// enter port's buffer.
func (e *Engine) IngressBacklog(port int) int { return e.inner.IngressBacklog(port) }

// BufferStats exposes an input port's buffer statistics — the same
// snapshot pktbuf.Buffer.Stats reports, including the worst-case
// invariant counters (Clean()).
func (e *Engine) BufferStats(port int) pktbuf.Stats {
	return facade.PublicStats(e.inner.BufferStats(port)).(pktbuf.Stats)
}

// Stats returns the router-level counters.
func (e *Engine) Stats() Stats {
	s := e.inner.Stats()
	return Stats{
		OfferedPackets:   s.OfferedPackets,
		DeliveredPackets: s.DeliveredPackets,
		SwitchedCells:    s.SwitchedCells,
		Matches:          s.Matches,
		Slots:            s.Slots,
	}
}

// EpochStats counts the engine's planning and synchronization
// activity. It is separate from Stats, which stays bit-identical
// across every EpochSlots setting.
type EpochStats struct {
	// Epochs counts executed plans; PlannedSlots the slots they
	// covered and CommittedSlots the slots that committed (equal
	// unless a divergence truncated a plan). Every slot StepBatch
	// does not fast-forward is a committed slot.
	Epochs, PlannedSlots, CommittedSlots uint64
	// HorizonTruncations counts plans of two or more slots cut short
	// of the window by the admission horizon: a plan ends after the
	// first slot whose arrival a port's tail SRAM cannot guarantee,
	// and the buffer decides that arrival (admit, or retry next slot).
	// SerialFallbackSlots counts plans that ended after their first
	// slot for that reason.
	HorizonTruncations, SerialFallbackSlots uint64
	// Divergences counts execution-time prediction failures (zero in
	// every healthy state).
	Divergences uint64
	// SyncOps counts coordinator↔worker channel operations:
	// 2×Workers per epoch (zero with Workers = 1).
	SyncOps uint64
}

// EpochStats returns the engine's planning and synchronization
// counters.
func (e *Engine) EpochStats() EpochStats {
	s := e.inner.EpochStats()
	return EpochStats{
		Epochs:              s.Epochs,
		PlannedSlots:        s.PlannedSlots,
		CommittedSlots:      s.CommittedSlots,
		HorizonTruncations:  s.HorizonTruncations,
		SerialFallbackSlots: s.SerialFallbackSlots,
		Divergences:         s.Divergences,
		SyncOps:             s.SyncOps,
	}
}

// Quiescent reports whether every port is idle end to end: no ingress
// cell waiting, no requestable VOQ anywhere, and every buffer shard
// with no internal work in flight. A quiescent engine's StepBatch
// fast-forwards all shards in lockstep instead of stepping them slot
// by slot (bit-identical, but O(1) per batch), so batches that
// outlive their traffic cost nothing per slot.
func (e *Engine) Quiescent() bool { return e.inner.Quiescent() }

// Workers returns the number of worker goroutines (1 = every port
// runs in place on the calling goroutine).
func (e *Engine) Workers() int { return e.inner.Workers() }

// Close stops the worker goroutines. A closed engine rejects further
// Offer and Step calls with ErrClosed. Close is idempotent.
func (e *Engine) Close() error { return e.inner.Close() }
