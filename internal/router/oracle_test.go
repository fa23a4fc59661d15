package router

import "repro/internal/cell"

// serialRouter is the differential oracle: the router stepped one slot
// at a time by composing the shipped building blocks directly — every
// port derives its request row from its buffer, schedule matches
// them, tickPort advances each port, and collect reassembles in
// input-port order. It never plans ahead, never validates a
// prediction and never fast-forwards. The embedded one-worker Engine
// supplies ingress (Offer), the VOQ mapping and the counters; only
// Step advances the oracle.
type serialRouter struct {
	*Engine
	rows      [][]cell.QueueID // [P][P] live request rows
	matched   []int
	deliv     []delivery
	egScratch []Egress
}

func newSerialRouter(cfg Config) (*serialRouter, error) {
	e, err := NewEngine(cfg, 1)
	if err != nil {
		return nil, err
	}
	P := e.r.cfg.Ports
	o := &serialRouter{
		Engine:  e,
		rows:    make([][]cell.QueueID, P),
		matched: make([]int, P),
		deliv:   make([]delivery, P),
	}
	for i := range o.rows {
		o.rows[i] = make([]cell.QueueID, P)
	}
	return o, nil
}

// Step advances the oracle one slot: one ingress cell per port, one
// fabric matching over the live request rows, one buffer tick per
// port, and output reassembly. It returns the packets completed this
// slot; the slice and payloads are scratch reused by the next Step.
// On a tick error the slot still completes on every port; the first
// error in input-port order is returned.
func (o *serialRouter) Step() ([]Egress, error) {
	r := o.r
	r.egArena = r.egArena[:0]
	for i, in := range r.inputs {
		for out := range o.rows[i] {
			o.rows[i][out] = in.request(out, r.cfg.Classes)
		}
	}
	r.schedule(o.rows, o.matched)
	for i := range r.inputs {
		req := cell.NoQueue
		if mo := o.matched[i]; mo >= 0 {
			req = o.rows[i][mo]
		}
		o.deliv[i] = r.tickPort(i, req)
	}
	out := o.egScratch[:0]
	var firstErr error
	for i := range r.inputs {
		var err error
		out, err = r.collect(i, o.deliv[i], out)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	r.stats.Slots++
	o.egScratch = out
	return out, firstErr
}
