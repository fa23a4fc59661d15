package router

import "fmt"

// commitEpoch repairs and retires an executed epoch. The committed
// prefix is the earliest divergence across ports (the whole plan when
// none diverged — every healthy run). It is never empty: every port
// executes slot 0, whose rows the planner read from the buffers. Its
// deliveries are collected in slot-major, input-port order, exactly
// the order one-slot epochs would have produced. A truncated plan
// rolls the scheduler state (grant/accept pointers, match counter)
// back to the per-slot snapshot at the commit point, so the next round
// re-plans from committed state as if the speculated tail had never
// been scheduled.
//
// If some port executed past the commit point the shards are torn —
// those ticks consumed state under a matching the truncation just
// revoked and cannot be undone — so the engine poisons itself with
// ErrEpochDiverged after delivering the valid prefix. This is
// reachable only after a buffer invariant violation (the same regime
// where a one-slot epoch returns per-port invariant errors); the
// bounded-lag design guarantees divergence-freedom, it does not
// repair corrupted buffers.
//
// Returns the egress, the committed slot count, the batch-relative
// slot of the returned error within this epoch, and the first error
// in slot-major port order.
func (e *Engine) commitEpoch(out []Egress) ([]Egress, int, int, error) {
	r := e.r
	p := e.plan
	P := r.cfg.Ports
	commit, reach := p.k, 0
	for _, d := range e.div {
		commit = min(commit, int(d))
		reach = max(reach, int(d))
	}
	torn := reach > commit
	if commit < p.k {
		e.estats.Divergences++
		// Roll the scheduler back to the commit point: the speculated
		// tail's grants never happened.
		off := (commit - 1) * P
		copy(r.grant, p.grant[off:off+P])
		copy(r.accept, p.accept[off:off+P])
		r.stats.Matches = p.matches[commit-1]
	}
	var firstErr error
	errSlot := 0
	for s := 0; s < commit; s++ {
		for i := 0; i < P; i++ {
			var err error
			out, err = r.collect(i, e.epDeliv[s*P+i], out)
			if err != nil && firstErr == nil {
				firstErr, errSlot = err, s
			}
		}
		r.stats.Slots++
	}
	e.estats.CommittedSlots += uint64(commit)
	if torn {
		e.poisoned = fmt.Errorf("%w: committed %d of %d planned slots", ErrEpochDiverged, commit, p.k)
		if firstErr == nil {
			firstErr, errSlot = e.poisoned, commit
		}
	}
	return out, commit, errSlot, firstErr
}
