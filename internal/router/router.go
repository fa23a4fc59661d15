// Package router assembles the paper's system context (Figure 1): an
// input-queued router whose every input line card carries a VOQ packet
// buffer (internal/core), fed by the cell segmentation layer
// (internal/packet) and drained by an iSLIP-style request-grant-accept
// fabric scheduler. Output ports reassemble cells into packets.
//
// The router is the "example application" the paper motivates — it is
// also the harshest client of the buffer's guarantees: the fabric
// scheduler's per-slot requests form exactly the adversarial patterns
// (§3) the buffer must absorb, and any miss, conflict or reorder
// surfaces as a corrupted packet at an output port.
//
// A slot decomposes into three building blocks — schedule (the iSLIP
// request-grant-accept exchange), tickPort (one port's ingress, buffer
// tick and metadata bookkeeping) and collect (fabric crossing and
// output reassembly). Engine, the package's one driver, runs every
// slot through an epoch plan: the coordinator schedules up to K slots
// ahead, tickPort runs on one worker goroutine per port shard, and
// collect retires the plan in slot-major, input-port order. tickPort
// touches only port-local state, so the result is bit-identical for
// every worker count and every K; the test suite pins it against a
// serial oracle that composes the same three blocks one slot at a
// time.
//
// All per-cell metadata lives in dense slice-indexed arenas: per-VOQ
// compacting deques keyed by the delivery sequence order the buffer
// guarantees, so the steady-state StepBatch path performs no hashing
// and no allocation.
package router

import (
	"errors"
	"fmt"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/packet"
)

// Config describes the router.
type Config struct {
	// Ports is the number of input (= output) ports.
	Ports int
	// Classes is the number of service classes; each input buffer
	// holds Ports×Classes VOQs (§2: "Each logical queue corresponds to
	// an output line interface and a class of service").
	Classes int
	// Buffer is the per-input packet buffer template; its Q field is
	// overwritten with Ports×Classes.
	Buffer core.Config
	// SchedulerIterations is the number of iSLIP iterations per slot
	// (≥1; more iterations converge closer to a maximal matching).
	SchedulerIterations int
	// IngressCap bounds each input's pre-segmentation cell backlog
	// (0 = a generous default of 4096 cells).
	IngressCap int
	// EpochSlots is the engine's speculation window K: the coordinator
	// plans up to K consecutive slots of iSLIP matchings in one
	// serialized pass and hands each worker the whole plan in a single
	// exchange, so the per-slot barrier becomes a per-epoch barrier
	// (≤0 = 1, a one-slot epoch; clamped to 4096). See Engine.
	EpochSlots int
}

// Errors returned by the router. Config rejections wrap
// core.ErrBadConfig so callers (and the public façade) dispatch on one
// taxonomy with errors.Is.
var (
	ErrIngressFull = errors.New("router: ingress backlog full")
	ErrBadPort     = errors.New("router: port out of range")
	ErrBadFlow     = errors.New("router: packet flow out of range")
	ErrClosed      = errors.New("router: engine closed")
	// ErrEpochDiverged reports that a port shard's live state diverged
	// from the epoch plan mid-execution and other shards had already
	// run past the divergence point. The committed prefix returned
	// with the error is valid; the engine is torn beyond it and
	// rejects further calls. Reachable only when a buffer invariant
	// has already broken — the planner's admission horizon makes the
	// prediction exact in every healthy state (see planEpoch).
	ErrEpochDiverged = errors.New("router: epoch execution diverged from plan")
)

// Egress is one packet leaving the router.
type Egress struct {
	// Output is the egress port.
	Output int
	// Input is the port the packet entered on.
	Input int
	// Packet is the reassembled packet (Flow = output×classes+class,
	// as offered). Its payload lives in the router's egress arena: it
	// is valid until the next StepBatch call, so callers that retain
	// egress across steps must copy.
	Packet packet.Packet
}

// segRing is a compacting deque of segmented cells: push appends,
// popFront advances a start cursor, and the backing array is compacted
// in place when it fills, so steady-state operation does not allocate.
type segRing struct {
	cells []packet.SegCell
	start int
}

func (q *segRing) len() int { return len(q.cells) - q.start }

// ensure compacts so that n appends fit without growing, when the
// slack at the front allows it.
func (q *segRing) ensure(n int) {
	if q.start > 0 && len(q.cells)+n > cap(q.cells) {
		m := copy(q.cells, q.cells[q.start:])
		q.cells = q.cells[:m]
		q.start = 0
	}
}

func (q *segRing) push(c packet.SegCell) {
	q.ensure(1)
	q.cells = append(q.cells, c)
}

func (q *segRing) front() packet.SegCell { return q.cells[q.start] }

// at returns the j-th queued cell (0 = front) without consuming it.
// The epoch planner walks the pending ring this way to predict which
// VOQ each future arrival lands in.
func (q *segRing) at(j int) packet.SegCell { return q.cells[q.start+j] }

func (q *segRing) popFront() packet.SegCell {
	c := q.cells[q.start]
	q.cells[q.start] = packet.SegCell{} // drop the payload reference
	q.start++
	if q.start == len(q.cells) {
		q.cells, q.start = q.cells[:0], 0
	}
	return c
}

// lineCard is one ingress port: its VOQ buffer plus the dense
// per-VOQ metadata arenas. All lineCard state is port-local — the
// sharded engine mutates it only from the port's own worker.
type lineCard struct {
	buf *core.Buffer
	seg packet.Segmenter
	// pending serializes segmented cells onto the line (1 per slot).
	pending segRing
	// arrivals[voq] counts cells admitted, assigning the sequence
	// numbers the buffer will deliver back; delivered[voq] counts
	// deliveries consumed, verifying the buffer's FIFO guarantee.
	arrivals  []uint64
	delivered []uint64
	// meta[voq] holds the admitted cells' payloads and headers in
	// arrival order; per-VOQ FIFO delivery makes the front cell the
	// one the buffer hands back next.
	meta []segRing
}

// request returns the VOQ the port requests for output o: its lowest
// class with a requestable cell (cell.NoQueue = none). It is the
// request rule the epoch planner predicts and each port re-derives
// from its buffer to validate the plan.
func (in *lineCard) request(o, classes int) cell.QueueID {
	base := o * classes
	for c := 0; c < classes; c++ {
		q := cell.QueueID(base + c)
		if in.buf.Requestable(q) > 0 {
			return q
		}
	}
	return cell.NoQueue
}

// delivery is one port's tick outcome, handed from tickPort to
// collect.
type delivery struct {
	sc    packet.SegCell
	queue cell.QueueID
	ok    bool
	err   error
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

// router is the composed system's state: the line cards, output
// reassemblers, iSLIP pointers and counters, plus the building blocks
// (schedule, tickPort, collect) a slot is made of. Engine drives it.
type router struct {
	cfg     Config
	inputs  []*lineCard
	reasm   []*packet.DenseReassembler // per output port
	grant   []int                      // iSLIP grant pointers, per output
	accept  []int                      // iSLIP accept pointers, per input
	stats   Stats
	voqs    int
	flowMul cell.QueueID // reassembly namespace multiplier

	// Scheduler scratch, reused every slot.
	reqMat      []bool // request matrix, [output*Ports+input]
	grantChoice []int  // per-output granted input this iteration
	matchedOut  []int  // per-output matched input
	// egArena backs the payloads of returned Egress packets. It is
	// reset at the start of every StepBatch call, so egress stays
	// valid for the whole batch: a mid-batch grow moves new payloads
	// to a fresh block while already-returned slices keep the old one
	// alive and untouched.
	egArena []byte
}

// newRouter builds the router state. Rejected configurations return
// errors matching core.ErrBadConfig.
func newRouter(cfg Config) (*router, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("%w: router: Ports must be positive, got %d", core.ErrBadConfig, cfg.Ports)
	}
	if cfg.Classes < 0 {
		return nil, fmt.Errorf("%w: router: Classes must not be negative, got %d", core.ErrBadConfig, cfg.Classes)
	}
	if cfg.Classes == 0 {
		cfg.Classes = 1
	}
	if cfg.SchedulerIterations <= 0 {
		cfg.SchedulerIterations = 1
	}
	if cfg.IngressCap <= 0 {
		cfg.IngressCap = 4096
	}
	if cfg.EpochSlots <= 0 {
		cfg.EpochSlots = 1
	}
	if cfg.EpochSlots > maxEpochSlots {
		cfg.EpochSlots = maxEpochSlots
	}
	voqs := cfg.Ports * cfg.Classes
	cfg.Buffer.Q = voqs

	r := &router{
		cfg:         cfg,
		grant:       make([]int, cfg.Ports),
		accept:      make([]int, cfg.Ports),
		voqs:        voqs,
		flowMul:     cell.QueueID(voqs),
		reqMat:      make([]bool, cfg.Ports*cfg.Ports),
		grantChoice: make([]int, cfg.Ports),
		matchedOut:  make([]int, cfg.Ports),
	}
	for i := 0; i < cfg.Ports; i++ {
		buf, err := core.New(cfg.Buffer)
		if err != nil {
			return nil, fmt.Errorf("router: input %d buffer: %w", i, err)
		}
		r.inputs = append(r.inputs, &lineCard{
			buf:       buf,
			arrivals:  make([]uint64, voqs),
			delivered: make([]uint64, voqs),
			meta:      make([]segRing, voqs),
		})
		// Reassembly streams are namespaced per (input, voq) so
		// same-flow cells of different inputs never interleave.
		r.reasm = append(r.reasm, packet.NewDenseReassembler(cfg.Ports*voqs))
	}
	return r, nil
}

// maxEpochSlots bounds the speculation window so plan arenas stay a
// few MB even at large port counts.
const maxEpochSlots = 4096

// fastForward advances all port shards by n slots in lockstep; the
// caller has established Engine.Quiescent. It is bit-identical to
// stepping n quiescent slots: every buffer fast-forwards (which is
// exact per core.Buffer.FastForward), no VOQ is requestable so the
// iSLIP exchange would match nothing and move no pointer, and the only
// router-level state a quiescent slot touches is the slot counter.
func (r *router) fastForward(n uint64) {
	for _, in := range r.inputs {
		in.buf.FastForward(n)
	}
	r.stats.Slots += n
}

// schedule computes one slot's input→output matching with iterative
// round-robin request-grant-accept (iSLIP) over the given request
// rows, writing matched[input] = output or -1. reqRows[i][o] names the
// VOQ input i would serve to output o (cell.NoQueue = none); the epoch
// planner passes rows predicted from its occupancy view.
//
//pktbuf:hotpath
func (r *router) schedule(reqRows [][]cell.QueueID, matched []int) {
	P := r.cfg.Ports
	for i := 0; i < P; i++ {
		matched[i], r.matchedOut[i] = -1, -1
	}
	for iter := 0; iter < r.cfg.SchedulerIterations; iter++ {
		// Request: unmatched inputs request every unmatched output they
		// can serve a cell to.
		any := false
		for o := 0; o < P; o++ {
			row := r.reqMat[o*P : o*P+P]
			if r.matchedOut[o] >= 0 {
				for i := range row {
					row[i] = false
				}
				continue
			}
			for i := 0; i < P; i++ {
				row[i] = matched[i] < 0 && reqRows[i][o] != cell.NoQueue
				any = any || row[i]
			}
		}
		if !any {
			break
		}
		// Grant: each output picks the requesting input nearest its
		// grant pointer.
		for o := 0; o < P; o++ {
			r.grantChoice[o] = -1
			if r.matchedOut[o] >= 0 {
				continue
			}
			row := r.reqMat[o*P : o*P+P]
			for k := 0; k < P; k++ {
				i := (r.grant[o] + k) % P
				if row[i] {
					r.grantChoice[o] = i
					break
				}
			}
		}
		// Accept: each input picks the granting output nearest its
		// accept pointer; pointers advance only on first-iteration
		// accepts (the iSLIP desynchronization rule).
		for i := 0; i < P; i++ {
			if matched[i] >= 0 {
				continue
			}
			best, bestDist := -1, P+1
			for o := 0; o < P; o++ {
				if r.grantChoice[o] != i {
					continue
				}
				if d := (o - r.accept[i] + P) % P; d < bestDist {
					best, bestDist = o, d
				}
			}
			if best < 0 {
				continue
			}
			matched[i], r.matchedOut[best] = best, i
			r.stats.Matches++
			if iter == 0 {
				r.accept[i] = (best + 1) % P
				r.grant[best] = (i + 1) % P
			}
		}
	}
}

// tickPort advances one port one slot: admit one pending ingress cell,
// tick the buffer with request (the VOQ the planned row names for the
// matched output, cell.NoQueue when unmatched), and resolve the
// delivered cell's metadata. An arrival the buffer rejects with
// ErrBufferFull stays pending and retries next slot. It touches only
// the port's lineCard, so the engine runs it concurrently across
// ports.
//
//pktbuf:hotpath
func (r *router) tickPort(i int, request cell.QueueID) delivery {
	in := r.inputs[i]
	tick := core.TickInput{Arrival: cell.NoQueue, Request: request}

	// Ingress: admit one pending cell.
	admit := false
	if in.pending.len() > 0 {
		tick.Arrival = in.pending.front().Flow
		admit = true
	}
	res, err := in.buf.Tick(tick)
	var d delivery
	if err != nil {
		if errors.Is(err, core.ErrBufferFull) {
			// Keep the cell pending; retry next slot.
			admit = false
		} else {
			d.err = fmt.Errorf("router: input %d: %w", i, err) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
			return d
		}
	}
	if admit {
		head := in.pending.popFront()
		in.arrivals[head.Flow]++
		in.meta[head.Flow].push(head)
	}

	// Egress: resolve the delivered cell's payload and header from the
	// per-VOQ FIFO metadata.
	if res.Delivered != nil {
		dc := *res.Delivered
		mq := &in.meta[dc.Queue]
		if mq.len() == 0 || in.delivered[dc.Queue] != dc.Seq {
			d.err = fmt.Errorf("router: input %d delivered unknown cell %v", i, dc) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
			return d
		}
		in.delivered[dc.Queue]++
		d.sc = mq.popFront()
		d.queue = dc.Queue
		d.ok = true
	}
	return d
}

// collect moves port i's delivered cell across the fabric to its
// output reassembler, appending any completed packet to out. It runs
// serially in input-port order so egress order is deterministic.
//
//pktbuf:hotpath
func (r *router) collect(i int, d delivery, out []Egress) ([]Egress, error) {
	if d.err != nil {
		return out, d.err
	}
	if !d.ok {
		return out, nil
	}
	r.stats.SwitchedCells++
	output := int(d.queue) / r.cfg.Classes
	sc := d.sc
	// Reassemble per (input, voq) stream so same-flow cells of
	// different inputs never interleave.
	sc.Flow = cell.QueueID(i)*r.flowMul + d.queue
	p, ok, err := r.reasm[output].Push(sc)
	if err != nil {
		return out, fmt.Errorf("router: output %d: %w", output, err) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
	}
	if ok {
		p.Flow %= r.flowMul // restore the offered flow id
		// Copy the payload out of the reassembler's per-flow buffer
		// (overwritten by the stream's next packet) into the egress
		// arena (stable until the next StepBatch call).
		off := len(r.egArena)
		r.egArena = append(r.egArena, p.Payload...) //pktbuf:allow hotpath-noalloc egress arena append: amortized, capacity reused across steps
		p.Payload = r.egArena[off:len(r.egArena):len(r.egArena)]
		out = append(out, Egress{Output: output, Input: i, Packet: p}) //pktbuf:allow hotpath-noalloc appends into the caller's reused egress slice; grows only on the first steps
		r.stats.DeliveredPackets++
	}
	return out, nil
}
