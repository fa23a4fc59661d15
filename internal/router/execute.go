package router

import "repro/internal/cell"

// runPortEpoch advances port i through the epoch plan's slots. Slot 0's
// rows were derived from the buffers themselves, so the port ticks it
// unchecked; before each later slot the port re-derives its request
// row from its own buffer and validates it against the planned
// prediction — the guard that keeps speculation bounded: a mismatch
// means the analytic occupancy view broke (possible only when a buffer
// invariant broke first, see planEpoch), so the port stops before
// ticking and the coordinator truncates the epoch at the earliest
// divergence. e.div[i] records how many planned slots the port
// executed (always ≥ 1); a tick error also stops the port, with the
// erroring slot counted as executed so its delivery surfaces through
// collect.
//
// Everything touched here is port-local (the plan and e.epDeliv are
// indexed by port), so workers run it concurrently with no
// synchronization inside the epoch.
//
//pktbuf:hotpath
func (e *Engine) runPortEpoch(i int) {
	r := e.r
	p := e.plan
	P := r.cfg.Ports
	C := r.cfg.Classes
	in := r.inputs[i]
	k := p.k
	for s := 0; s < k; s++ {
		row := p.reqVec[(s*P+i)*P : (s*P+i)*P+P]
		if s > 0 {
			for o, q := range row {
				if in.request(o, C) != q {
					e.div[i] = int32(s)
					return
				}
			}
		}
		req := cell.NoQueue
		if mo := p.matched[s*P+i]; mo >= 0 {
			req = row[mo]
		}
		d := r.tickPort(i, req)
		e.epDeliv[s*P+i] = d
		if d.err != nil {
			e.div[i] = int32(s + 1)
			return
		}
	}
	e.div[i] = int32(k)
}

// executeEpoch fans the current plan out to the shards: one command
// send and one completion receive per worker for the whole epoch.
func (e *Engine) executeEpoch() {
	if e.workers <= 1 {
		for i := range e.r.inputs {
			e.runPortEpoch(i)
		}
		return
	}
	for w := 0; w < e.workers; w++ {
		e.cmd[w] <- struct{}{}
	}
	for w := 0; w < e.workers; w++ {
		<-e.done
	}
	e.estats.SyncOps += uint64(2 * e.workers)
}
