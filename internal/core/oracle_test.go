package core

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/dss"
)

// oracle is the slot-at-a-time reference datapath the differential
// suites compare Tick and TickBatch against. It drives a Buffer built
// by New through its own copy of the Figure 5 slot body: every stage
// goes through the substrate interfaces (head MMA, head SRAM store,
// queue mapper), the ring index and MMA phase are recomputed from the
// clock every slot, and the ECQF window exit and leave event are two
// separate index updates. Only the DSA cycle and the substrates
// themselves are shared with the production datapath.
//
// The methods below shadow the Buffer methods of the same name, so
// calls inside the reference body resolve to the reference.
type oracle struct{ *Buffer }

// newOracle builds a reference buffer for cfg.
func newOracle(t testing.TB, cfg Config) oracle {
	t.Helper()
	buf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return oracle{buf}
}

// Tick advances the reference by one slot.
func (b oracle) Tick(in TickInput) (TickOutput, error) {
	return b.tickSlot(in, &b.delivered)
}

// recordErr keeps the first non-nil error of a slot; later errors of
// the same slot are dropped (the slot still completes, matching the
// hardware model where a violation is flagged but the clock advances).
func recordErr(dst *error, err error) {
	if err != nil && *dst == nil {
		*dst = err
	}
}

// tickSlot is one full slot against the given delivered-cell
// scratch.
func (b oracle) tickSlot(in TickInput, dst *cell.Cell) (TickOutput, error) {
	var out TickOutput
	var firstErr error

	// 1. Land DRAM→SRAM transfers completing this slot, before the
	// delivery point ("perfectly synchronized hardware", §3). The
	// completion calendar is a fixed ring indexed by slot.
	slotIdx := int(b.now % cell.Slot(len(b.compRing)))
	if pending := b.compRing[slotIdx]; len(pending) > 0 {
		for _, c := range pending {
			base := c.ordinal * uint64(b.cfg.Bsmall)
			for i, cl := range c.cells {
				if err := b.head.Insert(c.phys, base+uint64(i), cl); err != nil {
					b.stats.HeadOverflows++
					recordErr(&firstErr, fmt.Errorf("head SRAM insert: %w", err))
				}
			}
			b.dram.ReleaseBlock(c.cells)
		}
		b.compPending -= len(pending)
		b.compRing[slotIdx] = pending[:0]
	}

	// 2. Arrival.
	if in.Arrival != cell.NoQueue {
		recordErr(&firstErr, b.arrive(in.Arrival))
	}

	// 3. Request enters the pipeline; the pipeline shifts exactly once
	// per slot, so idle slots propagate bubbles.
	phys := cell.NoPhysQueue
	logical := cell.NoQueue
	if in.Request != cell.NoQueue {
		p, lq, err := b.admitRequest(in.Request)
		recordErr(&firstErr, err)
		phys, logical = p, lq
	}
	outPhys := b.look.Shift(phys)
	outEntry := b.logical[b.logHead]
	b.logical[b.logHead] = pipeEntry{logical: logical}
	b.logHead = (b.logHead + 1) % len(b.logical)
	if logical != cell.NoQueue {
		b.inPipe++
	}

	// 4. Delivery at the pipeline exit.
	if outEntry.logical != cell.NoQueue {
		b.inPipe--
		delivered, bypassed, err := b.deliver(outPhys, outEntry.logical, dst)
		recordErr(&firstErr, err)
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
	phase := int(b.now) % bs
	if phase == bs-1 {
		recordErr(&firstErr, b.tailCycle())
		recordErr(&firstErr, b.headCycle())
	}
	if bs == 1 {
		recordErr(&firstErr, b.dsaCycle(b.cfg.IssuesPerCycle))
	} else if phase == bs-1 || phase == bs/2-1 {
		recordErr(&firstErr, b.dsaCycle((b.cfg.IssuesPerCycle+1)/2))
	}

	if b.tailTotal > b.stats.TailHighWater {
		b.stats.TailHighWater = b.tailTotal
	}
	b.now++
	return out, firstErr
}

// arrive admits one cell into the tail SRAM.
func (b oracle) arrive(q cell.QueueID) error {
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
func (b oracle) admitRequest(q cell.QueueID) (cell.PhysQueueID, cell.QueueID, error) {
	if b.Requestable(q) <= 0 {
		b.stats.BadRequests++
		return cell.NoPhysQueue, cell.NoQueue,
			fmt.Errorf("%w: queue %d at slot %d", ErrBadRequest, q, b.now)
	}
	b.ks.pendingReq[q]++
	b.pendingTotal++
	b.stats.Requests++
	phys, ok := b.mapr.ConsumeForRequest(q)
	if !ok {
		// Bypass: commit the oldest unpromised tail cell to direct
		// delivery and remove it from the t-MMA's stageable ledger.
		b.tails[q].promised++
		b.tmma.OnBypass(q)
		return cell.NoPhysQueue, q, nil
	}
	b.hmma.OnRequestEnter(phys)
	return phys, q, nil
}

// deliver pops the cell for a request exiting the pipeline, storing it
// in dst (the per-Tick or per-batch-slot scratch the returned pointer
// aliases).
func (b oracle) deliver(phys cell.PhysQueueID, q cell.QueueID, dst *cell.Cell) (*cell.Cell, bool, error) {
	var c cell.Cell
	bypassed := false
	if phys == cell.NoPhysQueue {
		// Bypass delivery from the tail SRAM front.
		tq := &b.tails[q]
		if tq.len() == 0 || tq.promised == 0 {
			b.stats.Misses++
			return nil, false, fmt.Errorf("%w: bypass for queue %d at slot %d finds no cell",
				ErrMiss, q, b.now)
		}
		c = tq.popFront()
		tq.promised--
		b.tailTotal--
		bypassed = true
	} else {
		b.hmma.OnRequestLeave(phys)
		popped, err := b.head.Pop(phys)
		if err != nil {
			b.stats.Misses++
			return nil, false, fmt.Errorf("%w: queue %d (phys %d) at slot %d: %v",
				ErrMiss, q, phys, b.now, err)
		}
		c = popped
	}

	*dst = c
	want := b.ks.deliveredSeq[q]
	if c.Queue != q || c.Seq != want {
		return dst, bypassed, fmt.Errorf("%w: queue %d got %v, want seq %d",
			ErrOutOfOrder, q, c, want)
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
func (b oracle) tailCycle() error {
	if !b.sched.CanEnqueue() {
		b.stats.TailStalls++
		return nil
	}
	q, ok := b.tmma.Select(b.writeEligible)
	if !ok {
		return nil
	}
	p, err := b.mapr.WriteTarget(q)
	if err != nil {
		// Raced capacity; treated as a stall, retried next cycle.
		b.stats.TailStalls++
		return nil
	}
	ordinal, bank, err := b.dram.ReserveWrite(p)
	if err != nil {
		b.stats.TailStalls++
		return nil
	}
	if err := b.mapr.NoteWrite(q, p); err != nil {
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
func (b oracle) headCycle() error {
	if !b.sched.CanEnqueue() {
		b.stats.HeadStalls++
		return nil
	}
	// Eligibility comes from the DRAM's readable bitset installed at
	// construction, so no per-candidate closure is passed.
	p, ok := b.hmma.Select(nil)
	if !ok {
		return nil
	}
	ordinal, bank, err := b.dram.ReserveRead(p)
	if err != nil {
		return fmt.Errorf("core: replenish reserve for phys %d: %w", p, err)
	}
	b.hmma.OnReplenish(p)
	return b.sched.Enqueue(dss.Request{
		Queue: p, Dir: dss.Read, Ordinal: ordinal, Bank: bank, Enqueued: b.now,
	})
}
