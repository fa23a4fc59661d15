package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/packet"
	"repro/pktbuf/router"
)

// Router workload settings.
const (
	rtPorts       = 8
	rtClasses     = 2
	rtCadence     = 16   // slots per OfferBatch/StepBatch cycle, whatever EpochSlots is
	rtLoad        = 0.75 // offered cells per slot per input port
	rtWarmCycles  = 512
	rtSetupReps   = 9
	rtDrainBudget = 1 << 22 // slots
	rtPoolBytes   = 1 << 20
)

// errNoProgress reports a drain that did not finish in its budget.
var errNoProgress = errors.New("drain made no progress")

// rtSizes is the trimodal packet-size mix, drawn uniformly.
var rtSizes = [3]int{40, 300, 1500}

func routerConfig() router.Config {
	return router.Config{
		Ports: rtPorts, Classes: rtClasses, EpochSlots: 16, Workers: 2,
		Buffer: pktbuf.Config{LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256},
	}
}

// sentPacket is one offered packet awaiting egress: where its payload
// sits in the pool and when it was offered.
type sentPacket struct {
	off, n  int32
	offered time.Time
}

// rtTraffic generates the router's packet schedule: per input port,
// a credit of rtLoad cells accrues every slot and the next drawn
// packet is scheduled in the first slot whose credit covers its
// cells. The schedule depends on the seed and the slot only — never on
// EpochSlots, Workers or the step cadence.
type rtTraffic struct {
	pool   []byte
	rng    []*rand.Rand
	credit []float64
	next   []packet.Packet
	nextAt []int32 // payload offset of next[p]
	voq    func(output, class int) pktbuf.Queue
}

func newRTTraffic(seed int64, voq func(int, int) pktbuf.Queue) *rtTraffic {
	t := &rtTraffic{
		pool:   make([]byte, rtPoolBytes+rtSizes[2]),
		rng:    make([]*rand.Rand, rtPorts),
		credit: make([]float64, rtPorts),
		next:   make([]packet.Packet, rtPorts),
		nextAt: make([]int32, rtPorts),
		voq:    voq,
	}
	seedRand(seed, 100).Read(t.pool)
	for p := range t.rng {
		t.rng[p] = seedRand(seed, int64(101+p))
		t.draw(p)
	}
	return t
}

// draw picks port p's next packet.
func (t *rtTraffic) draw(p int) {
	r := t.rng[p]
	size := rtSizes[r.Intn(len(rtSizes))]
	off := r.Intn(rtPoolBytes)
	t.nextAt[p] = int32(off)
	t.next[p] = packet.Packet{
		Flow:    t.voq(r.Intn(rtPorts), r.Intn(rtClasses)),
		Payload: t.pool[off : off+size],
	}
}

// cycle appends port p's packets for the next rtCadence slots.
func (t *rtTraffic) cycle(p int, dst []packet.Packet, offs []int32) ([]packet.Packet, []int32) {
	for s := 0; s < rtCadence; s++ {
		t.credit[p] += rtLoad
		for {
			cells := float64(packet.CellCount(len(t.next[p].Payload)))
			if t.credit[p] < cells {
				break
			}
			t.credit[p] -= cells
			dst = append(dst, t.next[p])
			offs = append(offs, t.nextAt[p])
			t.draw(p)
		}
	}
	return dst, offs
}

// rtCheck verifies egress: every packet must leave byte-identical and
// in order per (input port, flow).
type rtCheck struct {
	pool     []byte
	inflight [][]sentPacket // per input×flow FIFO
	heads    []int
	flows    int
	accepted uint64
	egressed uint64
	bad      uint64
	firstBad string
}

func newRTCheck(pool []byte) *rtCheck {
	n := rtPorts * rtPorts * rtClasses
	return &rtCheck{pool: pool, inflight: make([][]sentPacket, n), heads: make([]int, n), flows: rtPorts * rtClasses}
}

func (c *rtCheck) offered(port int, p packet.Packet, off int32, at time.Time) {
	k := port*c.flows + int(p.Flow)
	c.inflight[k] = append(c.inflight[k], sentPacket{off: off, n: int32(len(p.Payload)), offered: at})
	c.accepted++
}

// egress checks one packet and returns its latency.
func (c *rtCheck) egress(e router.Egress, now time.Time) time.Duration {
	c.egressed++
	if e.Input < 0 || e.Input >= rtPorts || e.Packet.Flow < 0 || int(e.Packet.Flow) >= c.flows {
		c.fail("egress from input %d flow %d is out of range", e.Input, e.Packet.Flow)
		return 0
	}
	k := e.Input*c.flows + int(e.Packet.Flow)
	q := c.inflight[k]
	h := c.heads[k]
	if h >= len(q) {
		c.fail("unexpected packet on input %d flow %d", e.Input, e.Packet.Flow)
		return 0
	}
	want := q[h]
	c.heads[k]++
	if c.heads[k] == len(q) {
		c.inflight[k], c.heads[k] = q[:0], 0
	} else if c.heads[k] > 1024 && c.heads[k]*2 > len(q) {
		c.inflight[k] = append(q[:0], q[c.heads[k]:]...)
		c.heads[k] = 0
	}
	if out := int(e.Packet.Flow) / rtClasses; e.Output != out {
		c.fail("packet for output %d left on output %d", out, e.Output)
	}
	if !bytes.Equal(e.Packet.Payload, c.pool[want.off:want.off+want.n]) {
		c.fail("payload mismatch on input %d flow %d", e.Input, e.Packet.Flow)
	}
	return now.Sub(want.offered)
}

func (c *rtCheck) fail(format string, args ...any) {
	c.bad++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf(format, args...)
	}
}

// rtBench runs cycles of offer + step against one engine and checks
// its egress.
type rtBench struct {
	eng     *router.Engine
	traffic *rtTraffic
	check   *rtCheck
	batch   []packet.Packet
	offs    []int32
	out     []router.Egress
	// Offer-side outcome counters.
	generated, rejected uint64
	backlog             []float64 // IngressBacklog samples (traced)
}

func newRTBench(cfg router.Config, seed int64) (*rtBench, error) {
	eng, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	tf := newRTTraffic(seed, eng.VOQ)
	return &rtBench{eng: eng, traffic: tf, check: newRTCheck(tf.pool)}, nil
}

// cycle offers one cadence's packets on every port and steps the
// engine; lat receives each egress packet's latency in ms.
func (d *rtBench) cycle(tr *tracer, parent *spanH, req int64, lat *[]float64, offered *float64) error {
	for p := 0; p < rtPorts; p++ {
		d.batch, d.offs = d.traffic.cycle(p, d.batch[:0], d.offs[:0])
		d.generated += uint64(len(d.batch))
		if len(d.batch) == 0 {
			continue
		}
		sp := tr.begin(spOfferBatch, parent, req)
		n, err := d.eng.OfferBatch(p, d.batch)
		tr.end(&sp)
		if err != nil && !errors.Is(err, router.ErrIngressFull) {
			return fmt.Errorf("offer on port %d: %w", p, err)
		}
		now := time.Now()
		for i := 0; i < n; i++ {
			d.check.offered(p, d.batch[i], d.offs[i], now)
		}
		d.rejected += uint64(len(d.batch) - n)
		if offered != nil {
			*offered += float64(len(d.batch))
		}
	}
	sp := tr.begin(spStepBatch, parent, req)
	out, err := d.eng.StepBatch(rtCadence, d.out[:0])
	tr.end(&sp)
	if err != nil {
		return fmt.Errorf("step: %w", err)
	}
	d.out = out
	now := time.Now()
	for _, e := range out {
		l := d.check.egress(e, now)
		if lat != nil {
			*lat = append(*lat, ms(l))
		}
	}
	if tr.active() {
		for p := 0; p < rtPorts; p++ {
			d.backlog = append(d.backlog, float64(d.eng.IngressBacklog(p)))
		}
	}
	return nil
}

// drain steps without offering until every accepted packet has left.
func (d *rtBench) drain() error {
	for slots := 0; d.check.egressed < d.check.accepted; slots += rtCadence {
		if slots >= rtDrainBudget {
			return fmt.Errorf("%w: %d of %d packets out after %d slots",
				errNoProgress, d.check.egressed, d.check.accepted, slots)
		}
		out, err := d.eng.StepBatch(rtCadence, d.out[:0])
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		d.out = out
		now := time.Now()
		for _, e := range out {
			d.check.egress(e, now)
		}
	}
	return nil
}

func runRouterEpoch(o options, tr *tracer) (*result, error) {
	res := newResult(o.workload)
	var rb *rtBench
	setup, err := medianSetup(rtSetupReps, func(last bool) (time.Duration, error) {
		t0 := time.Now()
		d, err := newRTBench(routerConfig(), o.seed)
		if err != nil {
			return 0, err
		}
		for i := 0; i < rtWarmCycles; i++ {
			if err := d.cycle(nil, nil, 0, nil, nil); err != nil {
				d.eng.Close()
				return 0, fmt.Errorf("warm-up: %w", err)
			}
		}
		dur := time.Since(t0)
		if last {
			rb = d
		} else if err := d.eng.Close(); err != nil {
			return 0, err
		}
		return dur, nil
	})
	if err != nil {
		return nil, err
	}
	defer rb.eng.Close()
	res.e2e["setup_s"] = setup

	nw, wlen := planWindows(o)
	ws := make([]window, nw)
	st0 := rb.eng.Stats()
	es0 := rb.eng.EpochStats()
	b0 := make([]pktbuf.Stats, rtPorts)
	for p := range b0 {
		b0[p] = rb.eng.BufferStats(p)
	}
	u0 := takeUsage()
	var cycleID int64
	var tracedSlots, tracedPackets float64
	for i := range ws {
		w := &ws[i]
		w.traced = windowTraced(o, i)
		tr.setOn(w.traced)
		wsp := tr.begin(spBenchWindow, nil, int64(i))
		start := time.Now()
		c0 := rb.eng.Stats().SwitchedCells
		var offered float64
		for time.Since(start) < wlen {
			csp := tr.begin(spBenchCycle, &wsp, cycleID)
			if err := rb.cycle(tr, &csp, cycleID, &w.lat, &offered); err != nil {
				return nil, fmt.Errorf("timed phase: %w", err)
			}
			tr.end(&csp)
			cycleID++
			w.slots += rtCadence
		}
		w.seconds = time.Since(start).Seconds()
		w.cells = float64(rb.eng.Stats().SwitchedCells - c0)
		if w.traced {
			tracedSlots += w.slots
			tracedPackets += offered
		}
		tr.end(&wsp)
	}
	u1 := takeUsage()
	st1 := rb.eng.Stats()
	es1 := rb.eng.EpochStats()
	tr.setOn(o.trace)
	fillWindowMetrics(res, o, ws)
	fillRuntime(res, u0, u1, float64(st1.Slots-st0.Slots))

	if err := rb.drain(); err != nil {
		res.problem("%v", err)
	}
	// Validity: every packet out, intact and in order; clean buffers.
	res.attempted = rb.generated
	res.failed = rb.rejected + (rb.check.accepted - rb.check.egressed)
	if rb.check.bad > 0 {
		res.problem("%d bad egress packets, first: %s", rb.check.bad, rb.check.firstBad)
	}
	deltas := make([]pktbuf.Stats, rtPorts)
	peaks := make([]pktbuf.Stats, rtPorts)
	for p := 0; p < rtPorts; p++ {
		peaks[p] = rb.eng.BufferStats(p)
		deltas[p] = peaks[p].Sub(b0[p])
		if !peaks[p].Clean() {
			res.problem("input %d buffer not clean: %+v", p, peaks[p])
		}
	}
	sz, err := portSizing()
	if err != nil {
		return nil, err
	}
	fillSubstrate(res, deltas, peaks, sz)

	slots := float64(st1.Slots - st0.Slots)
	res.layer["router.stepbatch_ns_per_slot"] = ratio(float64(tr.total(spStepBatch)), tracedSlots)
	res.layer["router.offerbatch_ns_per_packet"] = ratio(float64(tr.total(spOfferBatch)), tracedPackets)
	res.layer["router.sync_ops_per_slot"] = ratio(float64(es1.SyncOps-es0.SyncOps), slots)
	res.layer["router.commit_ratio"] = ratio(float64(es1.CommittedSlots-es0.CommittedSlots),
		float64(es1.PlannedSlots-es0.PlannedSlots))
	res.layer["router.divergences"] = float64(es1.Divergences - es0.Divergences)
	res.layer["router.horizon_truncations"] = float64(es1.HorizonTruncations - es0.HorizonTruncations)
	res.layer["router.serial_fallback_slots"] = float64(es1.SerialFallbackSlots - es0.SerialFallbackSlots)
	res.layer["router.ingress_backlog_p99"] = quantile(rb.backlog, 0.99)
	res.layer["router.matches_per_slot"] = ratio(float64(st1.Matches-st0.Matches), slots)
	res.layer["router.cells_per_packet"] = ratio(float64(st1.SwitchedCells-st0.SwitchedCells),
		float64(st1.DeliveredPackets-st0.DeliveredPackets))
	res.note("timed phase: %.0f slots, %d packets delivered, %d cells switched; %d packets offered in all, %d rejected at ingress",
		slots, st1.DeliveredPackets-st0.DeliveredPackets, st1.SwitchedCells-st0.SwitchedCells,
		rb.generated, rb.rejected)
	return res, nil
}

// portSizing returns the as-built sizing of one input buffer: the
// router builds each from its template with Queues = Ports×Classes.
func portSizing() (pktbuf.Sizing, error) {
	c := routerConfig().Buffer
	c.Queues = rtPorts * rtClasses
	b, err := pktbuf.New(c)
	if err != nil {
		return pktbuf.Sizing{}, err
	}
	return b.Sizing(), nil
}
