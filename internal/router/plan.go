package router

import "repro/internal/cell"

// epochPlan is the coordinator's K-slot speculation: the iSLIP
// exchange run ahead of the shards against a synthetic occupancy
// view, plus everything needed to validate the plan port-locally and
// to roll the scheduler state back to any non-empty committed prefix.
// All arenas are sized once at engine construction; planning
// allocates nothing.
type epochPlan struct {
	k int // planned slots this epoch (≤ the EpochSlots window)

	// Per-slot outputs, slot-major.
	reqVec  []cell.QueueID // [K×P×P] predicted request rows: reqVec[(s·P+i)·P+o]
	matched []int          // [K×P] matched[s·P+i] = output or -1
	// Rollback snapshots after slot s, for every slot but the last.
	grant   []int    // [K×P] grant pointers
	accept  []int    // [K×P] accept pointers
	matches []uint64 // [K] cumulative Stats.Matches

	// Planner scratch.
	predReq  []int32          // [P×voqs] predicted Requestable per VOQ
	arrCur   []int            // [P] pending-ring cells consumed by the plan
	tailRoom []int            // [P] guaranteed-admission budget (TailFree)
	rows     [][]cell.QueueID // [P] row views into reqVec handed to schedule
}

func newEpochPlan(k, ports, voqs int) *epochPlan {
	return &epochPlan{
		reqVec:   make([]cell.QueueID, k*ports*ports),
		matched:  make([]int, k*ports),
		grant:    make([]int, k*ports),
		accept:   make([]int, k*ports),
		matches:  make([]uint64, k),
		predReq:  make([]int32, ports*voqs),
		arrCur:   make([]int, ports),
		tailRoom: make([]int, ports),
		rows:     make([][]cell.QueueID, ports),
	}
}

// planEpoch runs the request-grant-accept exchange for up to maxSlots
// (≥ 1) consecutive slots in one serialized pass and returns the plan
// length, and whether the admission horizon ended the plan short of
// maxSlots. The
// exchange for slot s needs the request rows the ports will only have
// after ticking slot s-1. Slot 0's rows are the buffers' own
// (lineCard.request); for later slots the planner evolves a synthetic
// occupancy view instead of waiting: predReq starts from each VOQ's
// live Requestable count and advances by the buffer's conservation
// law — an arrival raises it by one, an admitted fabric request lowers
// it by one, and the request's eventual delivery is net zero (it
// retires the occupancy and the pending request together). That view is exact, not heuristic, as
// long as every arrival the plan builds on actually admits; the
// admission horizon below enforces exactly that, so in every healthy
// state the shards execute the whole plan without divergence and the
// lag stays bounded by construction rather than by rollback frequency.
//
// Pointer evolution is shared, not simulated: each planned slot runs
// the same router.schedule over the predicted rows, mutating the live
// grant/accept pointers and match counter — so a fully committed epoch
// leaves them exactly where K one-slot epochs would, and per-slot
// snapshots allow rollback to any shorter prefix.
//
//pktbuf:hotpath
func (e *Engine) planEpoch(maxSlots int) (k int, horizon bool) {
	r := e.r
	p := e.plan
	P := r.cfg.Ports
	V := r.voqs
	C := r.cfg.Classes
	if maxSlots > 1 {
		for i, in := range r.inputs {
			p.arrCur[i] = 0
			p.tailRoom[i] = in.buf.TailFree()
		}
	}
	for {
		// Admission horizon: a port with ingress waiting but no tail
		// budget left may see this slot's arrival rejected. The slot's
		// rows depend only on earlier, guaranteed arrivals, so it is
		// still scheduled exactly; it becomes the plan's last slot and
		// tickPort's admit-or-retry rule decides the arrival. The
		// window's last slot needs no check: nothing is planned on it.
		if k+1 < maxSlots {
			for i, in := range r.inputs {
				if p.arrCur[i] < in.pending.len() && p.tailRoom[i] <= 0 {
					horizon = true
					break
				}
			}
		}
		// Request rows for this slot: lowest requestable class per
		// output, read from the buffers for slot 0 and from the
		// predicted view after it.
		off := k * P
		for i, in := range r.inputs {
			row := p.reqVec[(off+i)*P : (off+i)*P+P]
			if k == 0 {
				for o := range row {
					row[o] = in.request(o, C)
				}
			} else {
				base := i * V
				for o := range row {
					row[o] = cell.NoQueue
					qb := o * C
					for c := 0; c < C; c++ {
						if p.predReq[base+qb+c] > 0 {
							row[o] = cell.QueueID(qb + c)
							break
						}
					}
				}
			}
			p.rows[i] = row
		}
		matchedRow := p.matched[off : off+P]
		r.schedule(p.rows, matchedRow)
		k++
		if horizon || k == maxSlots {
			break
		}
		// Snapshot the scheduler for a commit that stops after this
		// slot (the last slot needs none: committing it is no
		// rollback).
		copy(p.grant[off:off+P], r.grant)
		copy(p.accept[off:off+P], r.accept)
		p.matches[k-1] = r.stats.Matches
		if k == 1 {
			// A second slot needs the view: seed it from the buffers.
			// Seeding only here keeps one-slot plans (the K=1 default)
			// at request's early-exit row scan instead of a full
			// P·voqs Requestable sweep.
			for i, in := range r.inputs {
				base := i * V
				for q := 0; q < V; q++ {
					p.predReq[base+q] = int32(in.buf.Requestable(cell.QueueID(q)))
				}
			}
		}
		// Evolve the view: one ingress admission per port, one debit
		// per granted request.
		for i, in := range r.inputs {
			if p.arrCur[i] < in.pending.len() {
				f := in.pending.at(p.arrCur[i]).Flow
				p.predReq[i*V+int(f)]++
				p.arrCur[i]++
				p.tailRoom[i]--
			}
			if mo := matchedRow[i]; mo >= 0 {
				q := p.reqVec[(off+i)*P+mo]
				p.predReq[i*V+int(q)]--
			}
		}
	}
	p.k = k
	return k, horizon
}
