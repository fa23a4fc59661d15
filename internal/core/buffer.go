package core

import (
	"errors"
	"fmt"

	"repro/internal/cell"
	"repro/internal/dram"
	"repro/internal/dss"
	"repro/internal/mma"
	"repro/internal/rename"
	"repro/internal/sram"
)

// Invariant and usage errors surfaced by Tick. The Err* invariant
// errors correspond to the paper's worst-case guarantees: a correctly
// dimensioned buffer never produces them, and the test suite asserts
// exactly that.
var (
	// ErrMiss is a head-SRAM miss: the arbiter's request exited the
	// pipeline but its cell was not resident (§3's zero-miss claim).
	ErrMiss = errors.New("core: head SRAM miss")
	// ErrTailOverflow means the tail SRAM exceeded its dimensioned
	// capacity even though the DRAM still had room.
	ErrTailOverflow = errors.New("core: tail SRAM overflow")
	// ErrBufferFull is a usage signal: the buffer (DRAM and tail SRAM)
	// is genuinely out of space and the arriving cell was rejected.
	ErrBufferFull = errors.New("core: buffer full, arrival dropped")
	// ErrBadRequest means the arbiter requested a queue with no
	// outstanding cells — forbidden by the system model (§2).
	ErrBadRequest = errors.New("core: request for empty queue")
	// ErrOutOfOrder means a delivered cell violated per-queue FIFO
	// order — never acceptable.
	ErrOutOfOrder = errors.New("core: out-of-order delivery")
	// ErrUnknownQueue means an arrival named a logical queue outside
	// [0, Q): the dense state arenas are sized from Config at
	// construction, so queue ids are ordinals, not arbitrary keys.
	// (An out-of-range request surfaces as ErrBadRequest — such a
	// queue trivially has nothing requestable.)
	ErrUnknownQueue = errors.New("core: queue id out of range")
	// ErrBadConfig marks a configuration rejected at construction time
	// (New / ApplyDefaults): inconsistent dimensioning parameters, an
	// invalid granularity, or substrate sizes below their minima. Every
	// config-validation failure wraps this sentinel so callers (and the
	// public façade) can errors.Is-match it.
	ErrBadConfig = errors.New("core: invalid configuration")
)

// TickInput carries the per-slot stimulus: at most one arriving cell
// and one scheduler request. Use cell.NoQueue for "none". Queue ids
// must be ordinals in [0, Config.Q).
type TickInput struct {
	// Arrival is the logical queue of the cell arriving this slot.
	Arrival cell.QueueID
	// Request is the logical queue the arbiter requests this slot.
	Request cell.QueueID
}

// TickOutput reports the slot's outcome.
type TickOutput struct {
	// Delivered is the cell granted to the arbiter this slot, if any.
	// The pointee is owned by the Buffer: a Tick output is overwritten
	// by the next Tick, a TickBatch output lives in batch-local
	// scratch and stays valid until the next Tick or TickBatch call.
	// Callers that retain the cell beyond that must copy it.
	Delivered *cell.Cell
	// Bypassed reports that the delivery came straight from the tail
	// SRAM (cut-through for queues with no DRAM-bound cells).
	Bypassed bool
}

// tailQueue is one logical queue's slice of the tail SRAM: a deque of
// cells in arrival order, stored in cells[start:]. The first promised
// cells of the live region are committed to the bypass path; staging
// removes cells from the front of the unpromised region (DRAM receives
// cells strictly in arrival order). The deque compacts in place when
// the backing array fills, so steady-state operation does not
// allocate.
type tailQueue struct {
	cells    []cell.Cell
	start    int
	promised int
}

func (t *tailQueue) len() int { return len(t.cells) - t.start }

func (t *tailQueue) push(c cell.Cell) {
	if len(t.cells) == cap(t.cells) && t.start > 0 {
		n := copy(t.cells, t.cells[t.start:])
		t.cells = t.cells[:n]
		t.start = 0
	}
	t.cells = append(t.cells, c)
}

// popFront removes and returns the oldest cell (the bypass delivery).
func (t *tailQueue) popFront() cell.Cell {
	c := t.cells[t.start]
	t.start++
	if t.start == len(t.cells) {
		t.cells, t.start = t.cells[:0], 0
	}
	return c
}

// extractBlock copies the n oldest unpromised cells into dst and
// removes them from the deque, preserving the promised prefix (which
// slides right over the vacated region).
func (t *tailQueue) extractBlock(n int, dst []cell.Cell) {
	base := t.start + t.promised
	copy(dst, t.cells[base:base+n])
	copy(t.cells[t.start+n:base+n], t.cells[t.start:base])
	t.start += n
	if t.start == len(t.cells) {
		t.cells, t.start = t.cells[:0], 0
	}
}

// queueState is the structure-of-arrays per-queue state arena: the
// arrival and delivery sequence cursors and the occupancy/pending
// counters, each in its own contiguous word-aligned array indexed by
// the logical queue ordinal. Keeping each counter class dense lets the
// round-robin steady state walk sixteen queues per cache line instead
// of two, and lets the slot datapath address one class without
// dragging the others through the cache. Only the tail-SRAM deques
// stay array-of-structs, because each holds a variable-length cell
// slice.
type queueState struct {
	arrivedSeq   []uint64
	deliveredSeq []uint64
	sysOcc       []int32
	pendingReq   []int32
}

func newQueueState(queues int) queueState {
	return queueState{
		arrivedSeq:   make([]uint64, queues),
		deliveredSeq: make([]uint64, queues),
		sysOcc:       make([]int32, queues),
		pendingReq:   make([]int32, queues),
	}
}

// completion is a DRAM→SRAM block transfer scheduled to land at a
// future slot.
type completion struct {
	phys    cell.PhysQueueID
	ordinal uint64
	cells   []cell.Cell
}

// pipeEntry pairs the physical name stored in the lookahead with the
// logical request it translates (the logical side is needed for the
// bypass path and FIFO verification).
type pipeEntry struct {
	logical cell.QueueID
}

// Buffer is the complete packet buffer (Figure 5). Create one with
// New; drive it with Tick once per slot.
type Buffer struct {
	cfg Config

	dram  *dram.DRAM
	head  sram.Store
	sched *dss.Scheduler
	hmma  mma.HeadMMA
	tmma  *mma.TailMMA
	mapr  mapper

	// look holds the physical-side pipeline (latency register +
	// lookahead, §5.4); logical is the parallel logical-side ring.
	look    *mma.Lookahead
	logical []pipeEntry
	logHead int

	// ks is the packed per-queue state arena (structure of arrays) and
	// tails the parallel tail-SRAM deque arena, both indexed by the
	// logical queue ordinal and sized to Config.Q at construction.
	ks        queueState
	tails     []tailQueue
	tailTotal int // resident cells incl. promised and staged
	// pendingTotal counts admitted requests not yet delivered (the
	// cells in flight through the request pipeline).
	pendingTotal int
	// inPipe counts non-idle entries in the logical pipeline ring. It
	// differs from pendingTotal only after a miss (the entry left the
	// ring but the delivery never completed); the quiescence predicate
	// uses it because ring emptiness, not delivery accounting, is what
	// makes an idle shift a pure rotation.
	inPipe int
	// compPending counts DRAM→SRAM completions waiting in compRing.
	compPending int

	// compRing is the completion calendar: a fixed ring of length
	// accessSlots+1 indexed by slot mod length. Slot buckets are
	// truncated (capacity kept) after landing, so the steady-state
	// read path does not allocate.
	compRing [][]completion

	now cell.Slot
	// delivered is the scratch cell TickOutput.Delivered points into.
	delivered cell.Cell
	// deliveredBatch is the batch-local scratch TickBatch outputs point
	// into: one cell per batch slot, so every delivery of one TickBatch
	// call stays valid until the next Tick/TickBatch call.
	deliveredBatch []cell.Cell

	// writeEligible is the t-MMA selection predicate, built once at
	// construction (closures created per cycle escape through the MMA
	// interface call and would allocate every b slots). It is nil when
	// the write path can never stall — identity mapping over an
	// unbounded DRAM — so the t-MMA walks its index with no
	// per-candidate calls at all. The h-MMA predicate needs no closure:
	// the DRAM publishes its readable-now bits as a dense bitset that
	// the head selectors consume directly (SetEligibility).
	writeEligible func(q cell.QueueID) bool

	// The concrete substrate behind the hmma, head and mapr interfaces,
	// resolved once in New so the slot datapath makes direct calls:
	// exactly one of ecqf/mdqf and one of cam/list is non-nil, and
	// ident is nil when renaming. RestoreBuffer restores the substrate
	// in place, so these never go stale.
	ecqf  *mma.ECQF
	mdqf  *mma.MDQF
	cam   *sram.CAMStore
	list  *sram.ListStore
	ident *identityMapper

	stats Stats
}

// New builds a buffer from cfg (ApplyDefaults is invoked internally,
// so a minimal Config works).
func New(cfg Config) (*Buffer, error) {
	cfg, err := cfg.ApplyDefaults()
	if err != nil {
		return nil, err
	}
	d := cfg.Dimension()

	// The dense arenas are sized from the physical name space P: the
	// logical space Q without renaming, or the register-bounded ordinal
	// space the rename table hands out (§6 oversubscription, A·Q names
	// rounded up to whole groups).
	physSpace := cfg.Q
	var tbl *rename.Table
	if cfg.Renaming {
		namesPerGroup := (cfg.Q*cfg.Oversub + d.Groups() - 1) / d.Groups()
		tbl, err = rename.New(d.Groups(), namesPerGroup, cfg.RegisterCap, cfg.Bsmall)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		physSpace = d.Groups() * namesPerGroup
		// Renaming keeps physical ids dense: every name is an ordinal
		// in [0, P). The arenas below rely on that, so check it here
		// rather than discover it as an index panic on the datapath.
		if tbl.TotalNames() != physSpace || physSpace < cfg.Q {
			return nil, fmt.Errorf("core: physical name space %d inconsistent (Q=%d, groups=%d)",
				tbl.TotalNames(), cfg.Q, d.Groups())
		}
	}

	dcfg := dram.Config{
		Banks:              cfg.Banks,
		BanksPerGroup:      d.BanksPerGroup(),
		AccessSlots:        cfg.accessSlots(),
		BlockCells:         cfg.Bsmall,
		BankCapacityBlocks: cfg.BankCapacityBlocks,
		Queues:             physSpace,
	}
	if err := dcfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}

	buf := &Buffer{cfg: cfg}
	switch cfg.Org {
	case OrgLinkedList:
		buf.list, err = sram.NewList(cfg.HeadSRAMCells, cfg.Bsmall, d.BanksPerGroup(), physSpace)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		buf.head = buf.list
	default:
		buf.cam = sram.NewCAM(cfg.HeadSRAMCells, physSpace)
		buf.head = buf.cam
	}

	pipeLen := cfg.Lookahead + cfg.LatencySlots
	if pipeLen < 1 {
		pipeLen = 1
	}
	buf.look, err = mma.NewLookahead(pipeLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}

	switch cfg.MMA {
	case MDQF:
		buf.mdqf, err = mma.NewMDQF(cfg.Bsmall, physSpace)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		buf.hmma = buf.mdqf
	default:
		buf.ecqf, err = mma.NewECQF(buf.look, cfg.Bsmall, physSpace)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		buf.hmma = buf.ecqf
	}

	buf.tmma, err = mma.NewTailMMA(cfg.Bsmall, cfg.Q)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}

	buf.dram = dram.New(dcfg)
	if cfg.Renaming {
		buf.mapr = &renameMapper{table: tbl, dram: buf.dram}
	} else {
		buf.ident = newIdentityMapper(buf.dram, cfg.Q)
		buf.mapr = buf.ident
	}

	buf.logical = make([]pipeEntry, pipeLen)
	for i := range buf.logical {
		buf.logical[i].logical = cell.NoQueue
	}
	policy := dss.OldestReadyFirst
	if cfg.FIFOScheduler {
		policy = dss.FIFOBlocking
	}
	buf.sched = dss.NewWithPolicy(cfg.RRCapacity, policy)
	buf.ks = newQueueState(cfg.Q)
	buf.tails = make([]tailQueue, cfg.Q)
	buf.compRing = make([][]completion, cfg.accessSlots()+1)
	// The head MMA selects against the DRAM's readable-now bitset in
	// place of per-candidate eligibility calls.
	buf.hmma.SetEligibility(buf.dram.ReadableSet())
	if cfg.BankCapacityBlocks == 0 && !cfg.Renaming {
		// Identity mapping over an unbounded DRAM: PeekWriteTarget can
		// never fail, so the t-MMA runs unmasked.
		buf.writeEligible = nil
	} else {
		buf.writeEligible = func(q cell.QueueID) bool {
			_, err := buf.mapr.PeekWriteTarget(q)
			return err == nil
		}
	}
	return buf, nil
}

// Config returns the fully defaulted configuration in use.
func (b *Buffer) Config() Config { return b.cfg }

// Now returns the current slot (the number of Ticks performed).
func (b *Buffer) Now() cell.Slot { return b.now }

// Len returns the number of cells of queue q currently in the buffer.
func (b *Buffer) Len(q cell.QueueID) int {
	if q < 0 || int(q) >= len(b.ks.sysOcc) {
		return 0
	}
	return int(b.ks.sysOcc[q])
}

// Requestable returns how many cells of q the arbiter may still
// request (cells in the system minus requests already in flight).
func (b *Buffer) Requestable(q cell.QueueID) int {
	if q < 0 || int(q) >= len(b.ks.sysOcc) {
		return 0
	}
	return int(b.ks.sysOcc[q] - b.ks.pendingReq[q])
}

// PendingRequests returns the number of admitted requests still in
// flight through the pipeline (requested but not yet delivered). A
// drain loop may stop as soon as this reaches zero with no further
// requests issued.
func (b *Buffer) PendingRequests() int { return b.pendingTotal }

// TailFree returns the number of future arrivals guaranteed to admit
// before the tail SRAM could possibly fill: its capacity minus the
// resident cells. The bound is conservative in the caller's favor —
// tailTotal only ever grows by one per admitted arrival (staging and
// bypass deliveries shrink it), so any arrival schedule that stays
// within TailFree can never observe ErrBufferFull or ErrTailOverflow.
// The router's epoch planner uses it as the speculation horizon.
func (b *Buffer) TailFree() int { return b.cfg.TailSRAMCells - b.tailTotal }

// ArrivedSeq returns the number of cells that have ever arrived for
// queue q — equivalently, the Seq the next arrival to q will be
// assigned. Samplers that attach to a buffer mid-run (for example the
// latency tracker) use it to align with the per-queue numbering.
func (b *Buffer) ArrivedSeq(q cell.QueueID) uint64 {
	if q < 0 || int(q) >= len(b.ks.arrivedSeq) {
		return 0
	}
	return b.ks.arrivedSeq[q]
}

// DeliveredSeq returns the number of cells ever delivered for queue q
// — equivalently, the Seq the next delivery of q will carry.
// Restore-time reconciliation (the serve package's session resumption)
// compares it against a client's received count to decide what to
// redeliver.
func (b *Buffer) DeliveredSeq(q cell.QueueID) uint64 {
	if q < 0 || int(q) >= len(b.ks.deliveredSeq) {
		return 0
	}
	return b.ks.deliveredSeq[q]
}

// Stats returns a snapshot of the accumulated statistics.
func (b *Buffer) Stats() Stats {
	s := b.stats
	s.DSS = b.sched.Stats()
	s.HeadHighWater = b.head.HighWater()
	return s
}

// Tick advances the buffer by one slot. Errors wrapping the Err*
// invariant sentinels indicate a violated worst-case guarantee;
// ErrBufferFull / ErrBadRequest indicate caller-visible conditions
// (the slot still completes: deliveries and internal transfers occur).
func (b *Buffer) Tick(in TickInput) (TickOutput, error) {
	return b.slot(in, &b.delivered, int(b.now%cell.Slot(len(b.compRing))), int(b.now)%b.cfg.Bsmall)
}

// run advances the buffer by one slot per element of in, writing slot
// i's delivered cell to scratch[i]. It carries the completion-ring
// index and the MMA phase across the span as counters instead of
// recomputing them from now every slot. It returns the number of slots
// ticked; on error it stops after the offending slot (which still
// completes, with its outcome in out[n-1]).
//
//pktbuf:hotpath
func (b *Buffer) run(in []TickInput, out []TickOutput, scratch []cell.Cell) (int, error) {
	ringLen := len(b.compRing)
	slotIdx := int(b.now % cell.Slot(ringLen))
	bs := b.cfg.Bsmall
	phase := int(b.now) % bs
	for i := range in {
		o, err := b.slot(in[i], &scratch[i], slotIdx, phase)
		out[i] = o
		if err != nil {
			return i + 1, err
		}
		if slotIdx++; slotIdx == ringLen {
			slotIdx = 0
		}
		if phase++; phase == bs {
			phase = 0
		}
	}
	return len(in), nil
}

// slot is the buffer's one slot datapath (Figure 5), shared by Tick
// and TickBatch. slotIdx is the current slot's completion-ring index
// (now mod the ring length) and phase its position in the b-slot MMA
// cycle (now mod b). A delivered cell is stored in dst, which the
// output aliases. The first error of the slot is returned; later
// errors of the same slot are dropped, and the slot still completes,
// matching the hardware model where a violation is flagged but the
// clock advances.
//
//pktbuf:hotpath
func (b *Buffer) slot(in TickInput, dst *cell.Cell, slotIdx, phase int) (TickOutput, error) {
	var out TickOutput
	var firstErr error

	// 1. Land DRAM→SRAM transfers completing this slot, before the
	// delivery point ("perfectly synchronized hardware", §3). The
	// compPending gate keeps the empty-calendar case to one compare.
	if b.compPending != 0 {
		if pending := b.compRing[slotIdx]; len(pending) > 0 {
			for _, c := range pending {
				base := c.ordinal * uint64(b.cfg.Bsmall)
				for j, cl := range c.cells {
					if err := b.insertHead(c.phys, base+uint64(j), cl); err != nil {
						b.stats.HeadOverflows++
						if firstErr == nil {
							firstErr = fmt.Errorf("head SRAM insert: %w", err)
						}
					}
				}
				b.dram.ReleaseBlock(c.cells)
			}
			b.compPending -= len(pending)
			b.compRing[slotIdx] = pending[:0]
		}
	}

	// 2. Arrival.
	if q := in.Arrival; q != cell.NoQueue {
		if err := b.arrive(q); err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// 3. Request enters the pipeline; the pipeline shifts exactly once
	// per slot, so idle slots propagate bubbles.
	phys := cell.NoPhysQueue
	logical := cell.NoQueue
	if q := in.Request; q != cell.NoQueue {
		p, lq, err := b.admitRequest(q)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		phys, logical = p, lq
	}
	// ECQF's window exit is delivered in this same slot (step 4), so
	// its shift observation and the delivery's leave event fuse into
	// one index update; deliver skips OnRequestLeave in return.
	var outPhys cell.PhysQueueID
	if b.ecqf != nil {
		outPhys = b.ecqf.ShiftDelivered(phys)
	} else {
		outPhys = b.look.Shift(phys)
	}
	outEntry := b.logical[b.logHead]
	b.logical[b.logHead] = pipeEntry{logical: logical}
	if b.logHead++; b.logHead == len(b.logical) {
		b.logHead = 0
	}
	if logical != cell.NoQueue {
		b.inPipe++
	}

	// 4. Delivery at the pipeline exit.
	if outEntry.logical != cell.NoQueue {
		b.inPipe--
		delivered, bypassed, err := b.deliver(outPhys, outEntry.logical, dst)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if delivered != nil {
			out.Delivered = delivered
			out.Bypassed = bypassed
		}
	}

	// 5. MMA cycle every b slots; DSA issues are staggered across the
	// cycle so that the write and read access of one window hit the
	// DRAM a random-access-time apart (the paper's RADS alternates
	// accesses every T_RC; CFDS overlaps them across banks).
	bs := b.cfg.Bsmall
	if phase == bs-1 {
		if err := b.tailCycle(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := b.headCycle(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if bs == 1 {
		if err := b.dsaCycle(b.cfg.IssuesPerCycle); err != nil && firstErr == nil {
			firstErr = err
		}
	} else if phase == bs-1 || phase == bs/2-1 {
		if err := b.dsaCycle((b.cfg.IssuesPerCycle + 1) / 2); err != nil && firstErr == nil {
			firstErr = err
		}
	}

	if b.tailTotal > b.stats.TailHighWater {
		b.stats.TailHighWater = b.tailTotal
	}
	b.now++
	return out, firstErr
}

// Quiescent reports whether an idle Tick (no arrival, no request)
// would be a pure time advance: the request pipeline and logical ring
// are empty, no completion is in flight in the calendar, the Requests
// Register is empty (and not a zero-capacity degenerate that stalls
// every cycle), and neither MMA would order a transfer. In a
// quiescent state an idle Tick changes nothing but the slot counter
// and the DSS empty-cycle count — which is exactly what FastForward
// reproduces analytically — and quiescence is stable: no idle Tick
// can leave it.
func (b *Buffer) Quiescent() bool {
	if b.inPipe != 0 || b.compPending != 0 || b.sched.Len() != 0 || !b.sched.CanEnqueue() {
		return false
	}
	// Both Selects are pure probes of the incrementally maintained
	// indices. Their answers cannot change across idle slots: every
	// state they read moves only through arrivals, requests or the
	// in-flight work ruled out above.
	if _, ok := b.tmma.Select(b.writeEligible); ok {
		return false
	}
	if _, ok := b.hmma.Select(nil); ok {
		return false
	}
	return true
}

// NextEventSlot is the event-query form of Quiescent, deliberately
// conservative: when the buffer is quiescent there is no internal
// event ever (ok=false — the caller may FastForward arbitrarily far);
// otherwise it returns the current slot, meaning every slot must be
// ticked until quiescence. It performs no calendar lookup — it never
// names a strictly future event slot — because in-flight work makes
// almost every intervening slot do real bookkeeping anyway, so there
// is nothing to skip to.
func (b *Buffer) NextEventSlot() (slot cell.Slot, ok bool) {
	if b.Quiescent() {
		return 0, false
	}
	return b.now, true
}

// FastForward advances the buffer by n idle slots in O(1). It is
// bit-identical to calling Tick n times with an idle TickInput from a
// quiescent state — identical statistics (FastForwardedSlots aside,
// which dense ticking leaves zero by definition) and identical
// subsequent behavior: the completion-ring index and the MMA cycle
// phase follow now analytically, the (empty) lookahead and logical
// rings are rotated in place, and the DSA cycles the skipped span
// would have run on an empty Requests Register are credited to the
// DSS empty-cycle count. If the buffer is not quiescent nothing
// happens; the number of slots actually skipped (n or 0) is returned.
func (b *Buffer) FastForward(n uint64) uint64 {
	if n == 0 || !b.Quiescent() {
		return 0
	}
	b.fastForward(n)
	return n
}

// fastForward performs the jump; the caller has established
// quiescence.
func (b *Buffer) fastForward(n uint64) {
	b.sched.SkipIdleCycles(dsaCyclesIn(uint64(b.now), n, b.cfg.Bsmall))
	b.look.FastForward(n)
	b.logHead = int((uint64(b.logHead) + n) % uint64(len(b.logical)))
	b.now += cell.Slot(n)
	b.stats.FastForwardedSlots += n
}

// dsaCyclesIn counts the DSA scheduling cycles Tick would run over the
// n slots starting at start: every slot when b=1, otherwise the two
// stagger phases b-1 and b/2-1 of each b-slot cycle.
func dsaCyclesIn(start, n uint64, bs int) uint64 {
	if bs == 1 {
		return n
	}
	m := uint64(bs)
	return slotsWithResidue(start, n, m, m-1) + slotsWithResidue(start, n, m, m/2-1)
}

// slotsWithResidue counts slots t in [start, start+n) with t % m == r.
func slotsWithResidue(start, n, m, r uint64) uint64 {
	first := start + (r-start%m+m)%m
	if first >= start+n {
		return 0
	}
	return (start+n-1-first)/m + 1
}

// TickBatch advances one slot per element of in, writing slot i's
// outcome to out[i]. It requires len(out) ≥ len(in) and returns the
// number of slots ticked; on error it stops after the offending slot
// (which, per Tick semantics, still completes and has its outcome in
// out[n-1]). Busy spans run through the same slot datapath as Tick,
// with the completion-ring index and MMA phase carried across the span
// instead of recomputed per slot. Delivered cells land in a
// batch-local scratch (every out[i].Delivered stays valid until the
// next Tick or TickBatch call, not just one slot), and runs of idle
// inputs are converted to FastForward the moment the buffer goes
// quiescent, so fully idle spans cost O(1) instead of O(slots). The
// outcome is bit-identical to calling Tick once per input; the
// differential suites in kernel_test.go and fastforward_test.go pin
// both against the slot-at-a-time reference in oracle_test.go.
func (b *Buffer) TickBatch(in []TickInput, out []TickOutput) (int, error) {
	if len(out) < len(in) {
		return 0, fmt.Errorf("core: TickBatch output slice too short: %d outputs for %d inputs",
			len(out), len(in))
	}
	if cap(b.deliveredBatch) < len(in) {
		b.deliveredBatch = make([]cell.Cell, len(in))
	}
	scratch := b.deliveredBatch[:cap(b.deliveredBatch)]
	i := 0
	for i < len(in) {
		if in[i].Arrival == cell.NoQueue && in[i].Request == cell.NoQueue {
			// Idle run: tick until quiescent, then skip the rest in O(1).
			j := i + 1
			for j < len(in) && in[j].Arrival == cell.NoQueue && in[j].Request == cell.NoQueue {
				j++
			}
			for i < j {
				if b.Quiescent() {
					b.fastForward(uint64(j - i))
					for ; i < j; i++ {
						out[i] = TickOutput{}
					}
					break
				}
				n, err := b.run(in[i:i+1], out[i:i+1], scratch[i:i+1])
				i += n
				if err != nil {
					return i, err
				}
			}
			continue
		}
		// Busy span: run the maximal stretch of non-idle slots in one
		// call.
		j := i + 1
		for j < len(in) && (in[j].Arrival != cell.NoQueue || in[j].Request != cell.NoQueue) {
			j++
		}
		n, err := b.run(in[i:j], out[i:j], scratch[i:j])
		i += n
		if err != nil {
			return i, err
		}
	}
	return len(in), nil
}

// insertHead lands one transferred cell in the head SRAM.
func (b *Buffer) insertHead(p cell.PhysQueueID, pos uint64, c cell.Cell) error {
	if b.cam != nil {
		return b.cam.Insert(p, pos, c)
	}
	return b.list.Insert(p, pos, c)
}

// arrive admits one cell into the tail SRAM.
func (b *Buffer) arrive(q cell.QueueID) error {
	if q < 0 || int(q) >= len(b.tails) {
		return fmt.Errorf("%w: arrival for queue %d (Q=%d)", ErrUnknownQueue, q, len(b.tails))
	}
	if b.tailTotal >= b.cfg.TailSRAMCells {
		// With a bounded DRAM the tail bound is conditional: any queue
		// blocked from writing (a full group without renaming, or §6's
		// residual fragmentation with it) legitimately backs cells up
		// into the tail SRAM, so the overflow is backpressure. With an
		// unbounded DRAM the t-MMA can always drain and an overflow is
		// a violated dimensioning bound.
		b.stats.Drops++
		if b.cfg.BankCapacityBlocks > 0 {
			return fmt.Errorf("%w: queue %d at slot %d", ErrBufferFull, q, b.now)
		}
		return fmt.Errorf("%w: %d cells at slot %d", ErrTailOverflow, b.tailTotal, b.now)
	}
	seq := b.ks.arrivedSeq[q]
	b.ks.arrivedSeq[q] = seq + 1
	b.tails[q].push(cell.Cell{Queue: q, Seq: seq})
	b.tailTotal++
	b.tmma.OnArrival(q)
	b.ks.sysOcc[q]++
	b.stats.Arrivals++
	return nil
}

// admitRequest validates and translates a scheduler request. Cells
// already written toward DRAM route via their physical queue; the
// remainder are promised to the tail-SRAM bypass.
func (b *Buffer) admitRequest(q cell.QueueID) (cell.PhysQueueID, cell.QueueID, error) {
	if q < 0 || int(q) >= len(b.ks.sysOcc) || b.ks.sysOcc[q]-b.ks.pendingReq[q] <= 0 {
		b.stats.BadRequests++
		return cell.NoPhysQueue, cell.NoQueue,
			fmt.Errorf("%w: queue %d at slot %d", ErrBadRequest, q, b.now)
	}
	b.ks.pendingReq[q]++
	b.pendingTotal++
	b.stats.Requests++
	var phys cell.PhysQueueID
	var ok bool
	if b.ident != nil {
		phys, ok = b.ident.ConsumeForRequest(q)
	} else {
		phys, ok = b.mapr.ConsumeForRequest(q)
	}
	if !ok {
		// Bypass: commit the oldest unpromised tail cell to direct
		// delivery and remove it from the t-MMA's stageable ledger.
		b.tails[q].promised++
		b.tmma.OnBypass(q)
		return cell.NoPhysQueue, q, nil
	}
	// ECQF observes window entry at the lookahead shift instead.
	if b.mdqf != nil {
		b.mdqf.OnRequestEnter(phys)
	}
	return phys, q, nil
}

// deliver pops the cell for a request exiting the pipeline, storing it
// in dst (the per-Tick or per-batch-slot scratch the returned pointer
// aliases).
//
//pktbuf:hotpath
func (b *Buffer) deliver(phys cell.PhysQueueID, q cell.QueueID, dst *cell.Cell) (*cell.Cell, bool, error) {
	var c cell.Cell
	bypassed := false
	if phys == cell.NoPhysQueue {
		// Bypass delivery from the tail SRAM front.
		tq := &b.tails[q]
		if tq.len() == 0 || tq.promised == 0 {
			b.stats.Misses++
			return nil, false, fmt.Errorf("%w: bypass for queue %d at slot %d finds no cell",
				ErrMiss, q, b.now) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
		}
		c = tq.popFront()
		tq.promised--
		b.tailTotal--
		bypassed = true
	} else {
		// ECQF's leave event was already folded into ShiftDelivered;
		// MDQF's is a no-op by construction.
		var popped cell.Cell
		var err error
		if b.cam != nil {
			popped, err = b.cam.Pop(phys)
		} else {
			popped, err = b.list.Pop(phys)
		}
		if err != nil {
			b.stats.Misses++
			return nil, false, fmt.Errorf("%w: queue %d (phys %d) at slot %d: %v",
				ErrMiss, q, phys, b.now, err) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
		}
		c = popped
	}

	*dst = c
	want := b.ks.deliveredSeq[q]
	if c.Queue != q || c.Seq != want {
		return dst, bypassed, fmt.Errorf("%w: queue %d got %v, want seq %d",
			ErrOutOfOrder, q, c, want) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
	}
	b.ks.deliveredSeq[q] = want + 1
	b.ks.sysOcc[q]--
	b.ks.pendingReq[q]--
	b.pendingTotal--
	b.stats.Deliveries++
	if bypassed {
		b.stats.Bypasses++
	}
	return dst, bypassed, nil
}

// tailCycle runs the t-MMA: stage one block of b cells toward DRAM.
func (b *Buffer) tailCycle() error {
	if !b.sched.CanEnqueue() {
		b.stats.TailStalls++
		return nil
	}
	q, ok := b.tmma.Select(b.writeEligible)
	if !ok {
		return nil
	}
	var p cell.PhysQueueID
	if b.ident != nil {
		// The identity write target needs no error value on a stall.
		p = cell.PhysQueueID(q)
		if !b.dram.CanWrite(p) {
			b.stats.TailStalls++
			return nil
		}
	} else {
		var err error
		if p, err = b.mapr.WriteTarget(q); err != nil {
			// Raced capacity; treated as a stall, retried next cycle.
			b.stats.TailStalls++
			return nil
		}
	}
	ordinal, bank, err := b.dram.ReserveWrite(p)
	if err != nil {
		b.stats.TailStalls++
		return nil
	}
	if b.ident != nil {
		b.ident.towardDRAM[q] += b.cfg.Bsmall
	} else if err := b.mapr.NoteWrite(q, p); err != nil {
		return err
	}
	blk := b.dram.AcquireBlock()
	b.tails[q].extractBlock(b.cfg.Bsmall, blk)
	b.tmma.OnTransfer(q)
	return b.sched.Enqueue(dss.Request{
		Queue: p, Dir: dss.Write, Ordinal: ordinal, Bank: bank,
		Cells: blk, Enqueued: b.now,
	})
}

// headCycle runs the h-MMA: order one replenishment of b cells.
func (b *Buffer) headCycle() error {
	if !b.sched.CanEnqueue() {
		b.stats.HeadStalls++
		return nil
	}
	// Eligibility comes from the DRAM's readable bitset installed at
	// construction, so no per-candidate closure is passed.
	var p cell.PhysQueueID
	var ok bool
	if b.ecqf != nil {
		p, ok = b.ecqf.Select(nil)
	} else {
		p, ok = b.mdqf.Select(nil)
	}
	if !ok {
		return nil
	}
	ordinal, bank, err := b.dram.ReserveRead(p)
	if err != nil {
		return fmt.Errorf("core: replenish reserve for phys %d: %w", p, err)
	}
	if b.ecqf != nil {
		b.ecqf.OnReplenish(p)
	} else {
		b.mdqf.OnReplenish(p)
	}
	return b.sched.Enqueue(dss.Request{
		Queue: p, Dir: dss.Read, Ordinal: ordinal, Bank: bank, Enqueued: b.now,
	})
}

// dsaCycle issues up to budget requests through the DSA and executes
// them against the DRAM.
func (b *Buffer) dsaCycle(budget int) error {
	access := cell.Slot(b.cfg.accessSlots())
	for _, r := range b.sched.Cycle(b.now, budget, b.cfg.accessSlots()) {
		switch r.Dir {
		case dss.Write:
			if _, err := b.dram.BeginWriteAt(r.Queue, r.Ordinal, r.Cells, b.now); err != nil {
				return fmt.Errorf("core: DSA write issue: %w", err)
			}
			// The block physically leaves the tail SRAM on the bus; its
			// staging storage goes back to the pool.
			b.tailTotal -= len(r.Cells)
			b.dram.ReleaseBlock(r.Cells)
		case dss.Read:
			_, cells, err := b.dram.BeginReadAt(r.Queue, r.Ordinal, b.now)
			if err != nil {
				return fmt.Errorf("core: DSA read issue: %w", err)
			}
			at := int((b.now + access) % cell.Slot(len(b.compRing)))
			b.compRing[at] = append(b.compRing[at], completion{
				phys: r.Queue, ordinal: r.Ordinal, cells: cells,
			})
			b.compPending++
		}
	}
	return nil
}
