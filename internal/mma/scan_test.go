package mma

import "repro/internal/cell"

// The linear-scan references of the indexed selectors: each is the
// direct transcription of its paper rule, and the differential tests
// assert Select ≡ SelectScan over seeded random workloads.

// SelectScan is the §3 ECQF rule as a literal scan over the lookahead.
// seen[q] counts the pending lookahead requests of q passed so far;
// queue q is critical at the request that makes occ[q] − seen[q] < 0.
// Every queue in the window is below len(occ): the shift observer
// grows the arenas on entry.
func (e *ECQF) SelectScan(eligible func(cell.PhysQueueID) bool) (cell.PhysQueueID, bool) {
	seen := make([]int32, len(e.occ))
	chosen, found := cell.NoPhysQueue, false
	e.look.Scan(func(_ int, q cell.PhysQueueID) bool {
		if q == cell.NoPhysQueue {
			return true
		}
		seen[q]++
		if e.occ[q]-seen[q] < 0 {
			if e.eligibleQ(q, eligible) {
				chosen, found = q, true
				return false
			}
			// Critical but not replenishable this cycle (e.g. its next
			// block's write is still in flight toward DRAM): keep
			// scanning for a later critical queue, and reset this
			// queue's count so criticality re-triggers only after b
			// more of its requests.
			seen[q] -= int32(e.b)
		}
		return true
	})
	return chosen, found
}

// SelectScan is the MDQF rule as a linear scan over the dense physical
// name space: the deepest deficit, ties to the lowest queue id.
func (m *MDQF) SelectScan(eligible func(cell.PhysQueueID) bool) (cell.PhysQueueID, bool) {
	best, bestOcc, found := cell.NoPhysQueue, int32(0), false
	for i := range m.occ {
		q := cell.PhysQueueID(i)
		if m.occ[i] >= 0 || (found && m.occ[i] >= bestOcc) || !m.eligibleQ(q, eligible) {
			continue
		}
		best, bestOcc, found = q, m.occ[i], true
	}
	return best, found
}

func (m *MDQF) eligibleQ(q cell.PhysQueueID, eligible func(cell.PhysQueueID) bool) bool {
	if m.elig != nil {
		return m.elig.Has(int(q))
	}
	return eligible == nil || eligible(q)
}

// SelectScan is the tail-MMA rule as a linear scan over the dense
// logical name space: the largest backlog of at least b cells, ties to
// the lowest queue id.
func (t *TailMMA) SelectScan(eligible func(cell.QueueID) bool) (cell.QueueID, bool) {
	best, bestOcc, found := cell.NoQueue, int32(0), false
	for i := range t.occ {
		n := t.occ[i]
		if n < int32(t.b) || (found && n <= bestOcc) {
			continue
		}
		q := cell.QueueID(i)
		if eligible != nil && !eligible(q) {
			continue
		}
		best, bestOcc, found = q, n, true
	}
	return best, found
}
