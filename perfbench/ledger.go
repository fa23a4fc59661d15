package main

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/serve/wire"
)

// ledger is one client connection's exactly-once and latency ledger.
// The submitting goroutine records every burst and the due time of
// each of its cells; the client's reader goroutine records every
// delivery (OnDeliver). After Bye, resolve attributes each Reject
// frame to the burst it refused, removes the dropped cells, and pairs
// the k-th admitted cell of each queue with that queue's k-th
// delivery — queues deliver in FIFO order, so that pairing is exact.
//
// Rejects are attributed after the run because a Reject frame names
// no burst: it carries only the accepted prefix and the dropped count.
// A burst qualifies for the k-th Reject if it follows the burst of the
// (k−1)-th, has Accepted+Dropped cells and was sent before the Reject
// was seen; among those, the attribution must leave every queue's
// submitted − dropped equal to what it received. resolve searches for
// that assignment and fails the run if none exists.
type ledger struct {
	base  time.Time
	flows []pktbuf.Queue
	index []int32 // queue id → flow index, −1 for another client's queue

	// Written by the submitting goroutine only.
	bursts   []burst
	cellFlow []uint16
	cellDue  []int64 // ns since base
	rejSeen  []int64 // ns since base at which the i-th Reject was first seen
	rejCells uint64

	// Written by the reader goroutine only.
	delFlow []uint16
	delAt   []int64 // ns since base
	seqNext []uint64
	seqBad  uint64

	delivered atomic.Uint64
	// notify wakes a closed-loop submitter waiting for window room.
	notify chan struct{}
}

// burst is one Submit frame: cells [start, start+n) of the ledger.
type burst struct {
	start, n int32
	sent     int64 // ns since base, just before Submit
}

func newLedger(base time.Time, flows []pktbuf.Queue, queues int) (*ledger, error) {
	if len(flows) > 1<<16 {
		return nil, fmt.Errorf("ledger: %d flows exceed 16-bit flow indices", len(flows))
	}
	l := &ledger{
		base:    base,
		flows:   flows,
		index:   make([]int32, queues),
		seqNext: make([]uint64, len(flows)),
		notify:  make(chan struct{}, 1),
	}
	for i := range l.index {
		l.index[i] = -1
	}
	for i, q := range flows {
		if q < 0 || int(q) >= queues {
			return nil, fmt.Errorf("ledger: flow queue %d outside [0,%d)", q, queues)
		}
		l.index[q] = int32(i)
	}
	return l, nil
}

// since returns t as nanoseconds since the ledger's base.
func (l *ledger) since(t time.Time) int64 { return int64(t.Sub(l.base)) }

// submitted records one burst before it is submitted; due[i] is the
// due time of flow index fs[i] (ns since base).
func (l *ledger) submitted(fs []uint16, due []int64, sent int64) {
	l.bursts = append(l.bursts, burst{start: int32(len(l.cellFlow)), n: int32(len(fs)), sent: sent})
	l.cellFlow = append(l.cellFlow, fs...)
	l.cellDue = append(l.cellDue, due...)
}

// sawRejects records that the client now holds n Reject frames and
// refusedCells refused cells in all.
func (l *ledger) sawRejects(n int, refusedCells uint64, now int64) {
	for len(l.rejSeen) < n {
		l.rejSeen = append(l.rejSeen, now)
	}
	l.rejCells = refusedCells
}

// onDeliver is the client's OnDeliver callback.
func (l *ledger) onDeliver(c pktbuf.Cell) {
	now := l.since(time.Now())
	f := int32(-1)
	if c.Queue >= 0 && int(c.Queue) < len(l.index) {
		f = l.index[c.Queue]
	}
	if f < 0 {
		l.seqBad++
		return
	}
	if c.Seq != l.seqNext[f] {
		l.seqBad++
	}
	l.seqNext[f] = c.Seq + 1
	l.delFlow = append(l.delFlow, uint16(f))
	l.delAt = append(l.delAt, now)
	if l.delivered.Add(1)%64 == 0 {
		select {
		case l.notify <- struct{}{}:
		default:
		}
	}
}

// outstanding returns cells submitted but neither delivered nor
// refused. Submitting goroutine only.
func (l *ledger) outstanding() int64 {
	return int64(len(l.cellFlow)) - int64(l.delivered.Load()) - int64(l.rejCells)
}

// sample is one submitted cell: its due time and its latency, or
// refusedLat for a cell a Reject frame refused.
type sample struct {
	due, lat int64 // ns
}

// refusedLat marks a refused cell, which misses any latency limit.
const refusedLat = math.MaxInt64

// resolution is what resolve proved about a connection.
type resolution struct {
	samples   []sample
	dropped   uint64 // cells refused by Reject frames
	submitted uint64
	received  uint64
}

// errLedger reports a ledger that does not balance.
var errLedger = errors.New("ledger does not balance")

// resolveSearchBudget bounds the reject-attribution search.
const resolveSearchBudget = 1 << 22

// resolve balances the ledger against the client's own per-queue
// counts (received(q)) and its Reject frames, in arrival order.
func (l *ledger) resolve(rejects []wire.Reject, received func(pktbuf.Queue) uint64) (resolution, error) {
	nf := len(l.flows)
	res := resolution{submitted: uint64(len(l.cellFlow)), received: uint64(len(l.delFlow))}
	if l.seqBad > 0 {
		return res, fmt.Errorf("%w: %d deliveries out of per-queue order or on foreign queues", errLedger, l.seqBad)
	}
	sub := make([]int64, nf)
	for _, f := range l.cellFlow {
		sub[f]++
	}
	got := make([]int64, nf)
	for _, f := range l.delFlow {
		got[f]++
	}
	deficit := make([]int64, nf)
	for f, q := range l.flows {
		if uint64(got[f]) != received(q) {
			return res, fmt.Errorf("%w: queue %d: observed %d deliveries, client counted %d",
				errLedger, q, got[f], received(q))
		}
		deficit[f] = sub[f] - got[f]
		if deficit[f] < 0 {
			return res, fmt.Errorf("%w: queue %d received %d cells of %d submitted (duplicates)",
				errLedger, q, got[f], sub[f])
		}
	}
	acceptedOf, err := l.attribute(rejects, deficit)
	if err != nil {
		return res, err
	}
	// Pair admitted cells with deliveries, queue by queue, in order.
	// delOrder lists delivery indices grouped by flow, each group in
	// arrival order; offs[f] is where flow f's group starts.
	offs := make([]int64, nf+1)
	for f := 0; f < nf; f++ {
		offs[f+1] = offs[f] + got[f]
	}
	delOrder := make([]int32, len(l.delFlow))
	fill := append([]int64(nil), offs[:nf]...)
	for i, f := range l.delFlow {
		delOrder[fill[f]] = int32(i)
		fill[f]++
	}
	next := append([]int64(nil), offs[:nf]...)
	res.samples = make([]sample, 0, len(l.cellFlow))
	for bi, b := range l.bursts {
		acc := int(b.n)
		if a, ok := acceptedOf[bi]; ok {
			acc = a
			res.dropped += uint64(int(b.n) - a)
		}
		for i := int(b.start); i < int(b.start+b.n); i++ {
			if i >= int(b.start)+acc {
				res.samples = append(res.samples, sample{due: l.cellDue[i], lat: refusedLat})
				continue
			}
			f := l.cellFlow[i]
			d := delOrder[next[f]]
			next[f]++
			res.samples = append(res.samples, sample{due: l.cellDue[i], lat: l.delAt[d] - l.cellDue[i]})
		}
	}
	return res, nil
}

// attribute assigns each Reject frame to the burst it refused (see
// ledger) and returns each refused burst's accepted prefix length.
// deficit[f] is submitted − received for flow f; the assignment must
// use it up exactly.
func (l *ledger) attribute(rejects []wire.Reject, deficit []int64) (map[int]int, error) {
	var need int64
	for _, d := range deficit {
		need += d
	}
	var refused int64
	for _, r := range rejects {
		if r.Accepted < 0 || r.Dropped <= 0 {
			return nil, fmt.Errorf("%w: malformed reject %+v", errLedger, r)
		}
		refused += int64(r.Dropped)
	}
	if need != refused {
		return nil, fmt.Errorf("%w: %d cells missing but Reject frames refused %d", errLedger, need, refused)
	}
	assign := make([]int, len(rejects))
	budget := resolveSearchBudget
	// apply moves burst b's refused suffix into (sign=-1) or back out of
	// (sign=+1) the deficit, reporting whether every count stays ≥ 0.
	apply := func(b burst, accepted int, sign int64) bool {
		ok := true
		for i := int(b.start) + accepted; i < int(b.start+b.n); i++ {
			f := l.cellFlow[i]
			deficit[f] += sign
			if deficit[f] < 0 {
				ok = false
			}
		}
		return ok
	}
	var search func(k, after int) bool
	search = func(k, after int) bool {
		if k == len(rejects) {
			return true // totals matched, and no deficit went negative
		}
		r := rejects[k]
		want := int32(r.Accepted + r.Dropped)
		seen := int64(1<<63 - 1)
		if k < len(l.rejSeen) {
			seen = l.rejSeen[k]
		}
		// Newest candidate first: the server refuses a burst as soon as
		// it reads it, so the refused burst is usually the last one sent
		// before the Reject was seen.
		j := len(l.bursts) - 1
		for j > after && l.bursts[j].sent > seen {
			j--
		}
		for ; j > after; j-- {
			if budget--; budget < 0 {
				return false
			}
			b := l.bursts[j]
			if b.n != want {
				continue
			}
			if apply(b, r.Accepted, -1) && search(k+1, j) {
				assign[k] = j
				return true
			}
			apply(b, r.Accepted, +1)
		}
		return false
	}
	if !search(0, -1) {
		if budget < 0 {
			return nil, fmt.Errorf("%w: reject attribution search exhausted its budget", errLedger)
		}
		return nil, fmt.Errorf("%w: no burst assignment explains the %d Reject frames", errLedger, len(rejects))
	}
	out := make(map[int]int, len(rejects))
	for k, j := range assign {
		out[j] = rejects[k].Accepted
	}
	return out, nil
}
