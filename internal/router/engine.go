package router

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/packet"
)

// Engine is the router's driver: each input port's buffer shard is
// advanced by a dedicated worker goroutine, and the iSLIP
// request-grant-accept exchange plus the in-order egress collection
// are the only serialization points.
//
// Every slot runs through an epoch plan. The coordinator plans up to
// K = Config.EpochSlots consecutive slots of matchings in one
// serialized pass against predicted request rows (plan.go), hands each
// worker the whole plan in a single command send, and the workers
// advance their shards through it without touching a channel
// (execute.go), so coordinator↔worker channel operations cost
// 2·workers per epoch rather than per slot. Each port validates the
// plan against its own buffer before every slot after the first; the
// coordinator commits the validated prefix and re-plans from
// committed state (repair.go). A one-slot epoch (K = 1) is the
// lockstep slot: schedule, tick every port, collect.
//
// Because tickPort touches only port-local state and collect consumes
// deliveries in slot-major, input-port order, the egress, Stats and
// buffer counters are bit-identical for every K and every worker
// count — the test suite pins them against a serial oracle.
//
// The engine is single-driver: Offer, StepBatch and Close must be
// called from one goroutine (the workers never touch router state
// outside a StepBatch). With workers ≤ 1 the engine runs every plan in
// place, with no goroutines — for GOMAXPROCS=1 hosts where the barrier
// overhead buys nothing.
type Engine struct {
	r       *router
	workers int
	cmd     []chan struct{} // per-worker command: run the current plan
	done    chan struct{}
	closed  bool
	// poisoned is set when epoch execution tore the shard state (see
	// ErrEpochDiverged); every subsequent call returns it.
	poisoned error

	plan    *epochPlan
	epDeliv []delivery // [K×Ports] per-slot deliveries, slot-major
	div     []int32    // div[i] = planned slots port i executed
	estats  EpochStats
}

// EpochStats counts the engine's planning and synchronization
// activity. It is deliberately separate from Stats, which stays
// bit-identical for every K and worker count.
type EpochStats struct {
	// Epochs counts executed plans (length ≥ 1); PlannedSlots the
	// slots they covered and CommittedSlots the slots that committed
	// (equal unless a divergence truncated a plan).
	Epochs, PlannedSlots, CommittedSlots uint64
	// HorizonTruncations counts plans of two or more slots cut short
	// of the window by the admission horizon: the plan ends after the
	// first slot whose arrival a port's tail-SRAM budget cannot
	// guarantee, and tickPort decides that arrival (admit, or retry
	// next slot).
	HorizonTruncations uint64
	// SerialFallbackSlots counts plans the admission horizon cut short
	// of the window after their first slot, because that slot's
	// arrival was not guaranteed (ingress waiting on a full tail
	// SRAM): one exact slot whose admit-or-retry outcome the next plan
	// starts from.
	SerialFallbackSlots uint64
	// Divergences counts execution-time validation failures. Zero in
	// every healthy state: the planner's predictions are exact unless
	// a buffer invariant has already broken.
	Divergences uint64
	// SyncOps counts coordinator↔worker channel operations: each
	// worker costs one command send plus one completion receive per
	// epoch, so 2·workers per epoch (none with one worker).
	SyncOps uint64
}

// NewEngine builds a router engine over cfg. workers ≤ 0 selects one
// worker per port (the goroutine-per-port sharding of the paper's
// Figure 1, one line card per goroutine); workers between 2 and
// Ports-1 stripes the ports across that many workers; workers == 1
// runs every plan in place. Rejected configurations return errors
// matching core.ErrBadConfig.
func NewEngine(cfg Config, workers int) (*Engine, error) {
	r, err := newRouter(cfg)
	if err != nil {
		return nil, err
	}
	ports, k := r.cfg.Ports, r.cfg.EpochSlots
	if workers <= 0 || workers > ports {
		workers = ports
	}
	e := &Engine{
		r:       r,
		workers: workers,
		plan:    newEpochPlan(k, ports, r.voqs),
		epDeliv: make([]delivery, k*ports),
		div:     make([]int32, ports),
	}
	if workers > 1 {
		e.cmd = make([]chan struct{}, workers)
		e.done = make(chan struct{}, workers)
		for w := 0; w < workers; w++ {
			e.cmd[w] = make(chan struct{}, 1)
			go e.worker(w)
		}
	}
	return e, nil
}

// worker runs the current plan on the ports striped onto worker w
// (ports w, w+W, w+2W, …) each time the coordinator sends a command,
// then reports completion. Writes land in per-port slots of e.epDeliv
// and e.div and are published to the coordinator by the done send.
func (e *Engine) worker(w int) {
	ports := e.r.cfg.Ports
	for range e.cmd[w] {
		for i := w; i < ports; i += e.workers {
			e.runPortEpoch(i)
		}
		e.done <- struct{}{}
	}
}

// Workers returns the number of worker goroutines (1 = in place).
func (e *Engine) Workers() int { return e.workers }

// Config returns the normalized configuration.
func (e *Engine) Config() Config { return e.r.cfg }

// VOQ maps (output, class) to the logical queue id used inside each
// input buffer.
func (e *Engine) VOQ(output, class int) cell.QueueID {
	return cell.QueueID(output*e.r.cfg.Classes + class)
}

// Offer enqueues a packet at an input port. The packet's Flow must be
// a valid VOQ id (use VOQ to build it). The segmented cells alias
// p.Payload until the packet leaves the router.
func (e *Engine) Offer(port int, p packet.Packet) error {
	if e.closed {
		return ErrClosed
	}
	if e.poisoned != nil {
		return e.poisoned
	}
	r := e.r
	if port < 0 || port >= r.cfg.Ports {
		return fmt.Errorf("%w: %d", ErrBadPort, port)
	}
	if p.Flow < 0 || int(p.Flow) >= r.voqs {
		return fmt.Errorf("%w: %d", ErrBadFlow, p.Flow)
	}
	in := r.inputs[port]
	n := packet.CellCount(len(p.Payload))
	if in.pending.len()+n > r.cfg.IngressCap {
		return fmt.Errorf("%w: port %d", ErrIngressFull, port)
	}
	in.pending.ensure(n)
	in.pending.cells = in.seg.SegmentAppend(in.pending.cells, p)
	r.stats.OfferedPackets++
	return nil
}

// OfferBatch enqueues packets at an input port in one validated pass:
// the port and engine state are checked once, the accepted prefix is
// sized against the ingress budget up front, and its cells are
// segmented in a single run with one ring compaction. It returns the
// number of packets accepted and the error that stopped the run
// (ErrBadFlow, or ErrIngressFull when the next packet would overflow
// the backlog); the remaining packets are not offered.
func (e *Engine) OfferBatch(port int, ps []packet.Packet) (int, error) {
	if e.closed {
		return 0, ErrClosed
	}
	if e.poisoned != nil {
		return 0, e.poisoned
	}
	r := e.r
	if port < 0 || port >= r.cfg.Ports {
		return 0, fmt.Errorf("%w: %d", ErrBadPort, port)
	}
	in := r.inputs[port]
	budget := r.cfg.IngressCap - in.pending.len()
	n, cells := 0, 0
	var stop error
	for k := range ps {
		if ps[k].Flow < 0 || int(ps[k].Flow) >= r.voqs {
			stop = fmt.Errorf("%w: %d", ErrBadFlow, ps[k].Flow)
			break
		}
		c := packet.CellCount(len(ps[k].Payload))
		if cells+c > budget {
			stop = fmt.Errorf("%w: port %d", ErrIngressFull, port)
			break
		}
		n++
		cells += c
	}
	in.pending.ensure(cells)
	for k := 0; k < n; k++ {
		in.pending.cells = in.seg.SegmentAppend(in.pending.cells, ps[k])
	}
	r.stats.OfferedPackets += uint64(n)
	return n, stop
}

// IngressBacklog returns the number of cells waiting to enter port's
// buffer.
func (e *Engine) IngressBacklog(port int) int { return e.r.inputs[port].pending.len() }

// BufferStats exposes an input buffer's statistics.
func (e *Engine) BufferStats(port int) core.Stats { return e.r.inputs[port].buf.Stats() }

// Stats returns the router-level counters.
func (e *Engine) Stats() Stats { return e.r.stats }

// EpochStats returns the engine's planning and synchronization
// counters.
func (e *Engine) EpochStats() EpochStats { return e.estats }

// Quiescent reports whether a slot would be a pure slot-counter
// advance on every port: no ingress cell is waiting, no buffer has a
// requestable VOQ (so the iSLIP exchange makes no match and moves no
// pointer), and every buffer shard is itself quiescent. The checks run
// cheapest-first and bail on the first busy port, so a loaded router
// pays almost nothing for the probe.
func (e *Engine) Quiescent() bool {
	for _, in := range e.r.inputs {
		if in.pending.len() > 0 {
			return false
		}
		for q := 0; q < e.r.voqs; q++ {
			if in.buf.Requestable(cell.QueueID(q)) > 0 {
				return false
			}
		}
		if !in.buf.Quiescent() {
			return false
		}
	}
	return true
}

// StepBatch advances up to slots slots, appending all egress to out.
// Egress payloads from the whole batch stay valid until the next
// StepBatch call. On a slot error it stops after the offending slot
// (whose egress is already appended) and returns the error. The
// returned slice extends out; with enough capacity the batch path
// allocates nothing.
//
// The batch runs as a sequence of plan → execute → commit rounds,
// each amortizing one barrier over up to K slots. Quiescence is probed
// at epoch boundaries: when every port goes quiescent (drained
// buffers, empty ingress, nothing requestable) the remaining slots are
// skipped in one lockstep fast-forward of all shards, so a batch that
// outlives its traffic costs O(events), not O(slots). Idle slots
// inside an epoch are ticked instead of skipped, which is
// bit-identical apart from core.Stats.FastForwardedSlots.
func (e *Engine) StepBatch(slots int, out []Egress) ([]Egress, error) {
	if e.closed {
		return out, ErrClosed
	}
	if e.poisoned != nil {
		return out, e.poisoned
	}
	r := e.r
	r.egArena = r.egArena[:0]
	for done := 0; done < slots; {
		if e.Quiescent() {
			r.fastForward(uint64(slots - done))
			break
		}
		maxK := r.cfg.EpochSlots
		if rem := slots - done; rem < maxK {
			maxK = rem
		}
		k, horizon := e.planEpoch(maxK)
		e.estats.Epochs++
		e.estats.PlannedSlots += uint64(k)
		switch {
		case horizon && k == 1:
			e.estats.SerialFallbackSlots++
		case horizon:
			e.estats.HorizonTruncations++
		}
		e.executeEpoch()
		var commit, errSlot int
		var err error
		out, commit, errSlot, err = e.commitEpoch(out)
		if err != nil {
			return out, fmt.Errorf("slot %d of batch: %w", done+errSlot, err)
		}
		done += commit
	}
	return out, nil
}

// Close stops the worker goroutines. A closed engine rejects further
// Offer and StepBatch calls with ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	for _, c := range e.cmd {
		close(c)
	}
	return nil
}
