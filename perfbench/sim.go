package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/sim"
)

// Sim workload settings: the paper's OC-3072 CFDS design point with
// 64k queues, driven by the §3 adversarial pattern.
const (
	simQueues     = 65536
	simChunk      = 4096   // RunBatch's internal chunk and the replay's TickBatch length
	simCall       = 32768  // slots per timed RunBatch call: half a round of the pattern
	simCheckSlots = 524288 // snapshot→restore→continue span
	simSetupReps  = 5
	// simLatencyEvery samples every n-th cell of each queue for latency.
	simLatencyEvery = 64
)

func simConfig() pktbuf.Config {
	return pktbuf.Config{Queues: simQueues, LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256}
}

// simSetup builds the buffer and fills every queue with b·4 cells of
// round-robin arrivals and no requests, so the timed phase drains
// through DRAM rather than the SRAM bypass. The seed shifts the
// arrival round-robin's phase against the drain's by up to Q slots.
func simSetup(seed int64) (*pktbuf.Buffer, sim.ArrivalProcess, error) {
	buf, err := pktbuf.New(simConfig())
	if err != nil {
		return nil, nil, err
	}
	arr, err := sim.NewRoundRobinArrivals(simQueues, 1.0)
	if err != nil {
		return nil, nil, err
	}
	b := buf.Sizing().Granularity
	warm := uint64(simQueues*b*4) + uint64(seedRand(seed, 0).Intn(simQueues))
	r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: sim.NewIdleRequests()}
	if _, err := r.RunBatch(warm, simChunk); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return buf, arr, nil
}

func runSimAdversarial(o options, tr *tracer) (*result, error) {
	res := newResult(o.workload)
	var buf *pktbuf.Buffer
	var arr sim.ArrivalProcess
	setup, err := medianSetup(simSetupReps, func(last bool) (time.Duration, error) {
		t0 := time.Now()
		b, a, err := simSetup(o.seed)
		d := time.Since(t0)
		if last {
			buf, arr = b, a
		}
		return d, err
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup
	req, err := sim.NewRoundRobinDrain(simQueues)
	if err != nil {
		return nil, err
	}
	runner := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}

	// Timed phase: RunBatch in fixed calls. Latency is each sampled
	// cell's sojourn in host time: round-robin arrivals at load 1 put
	// cell (q, seq) in at slot seq·Q + q, and the slot clock maps that
	// slot to the wall time the simulation reached it.
	nw, wlen := planWindows(o)
	ws := make([]window, nw)
	clock := &slotClock{}
	first := buf.Now()
	var cur *window
	var badArrival uint64
	runner.OnDeliver = func(c pktbuf.Cell, _ bool) {
		if c.Seq%simLatencyEvery != 0 {
			return
		}
		in := c.Seq*simQueues + uint64(c.Queue)
		if in >= buf.Now() {
			badArrival++
			return
		}
		if in < first {
			return // arrived during set-up
		}
		cur.lat = append(cur.lat, ms(time.Since(clock.wall(in))))
	}
	st0 := buf.Stats()
	u0 := takeUsage()
	var callID int64
	for i := range ws {
		w := &ws[i]
		cur = w
		w.traced = windowTraced(o, i)
		tr.setOn(w.traced)
		wsp := tr.begin(spBenchWindow, nil, int64(i))
		start := time.Now()
		d0 := buf.Stats().Deliveries
		for time.Since(start) < wlen {
			sp := tr.begin(spRunBatch, &wsp, callID)
			clock.stamp(buf.Now(), time.Now())
			if _, err := runner.RunBatch(simCall, simChunk); err != nil {
				return nil, fmt.Errorf("timed phase: %w", err)
			}
			tr.end(&sp)
			callID++
			w.slots += simCall
		}
		w.seconds = time.Since(start).Seconds()
		w.cells = float64(buf.Stats().Deliveries - d0)
		tr.end(&wsp)
	}
	runner.OnDeliver = nil
	if badArrival > 0 {
		res.problem("%d delivered cells had not arrived by the round-robin schedule", badArrival)
	}
	u1 := takeUsage()
	st1 := buf.Stats()
	tr.setOn(o.trace)
	fillWindowMetrics(res, o, ws)
	delta := st1.Sub(st0)
	slots := 0.0
	for _, w := range ws {
		slots += w.slots
	}
	fillRuntime(res, u0, u1, slots)

	// Validity: zero-miss guarantee and the DRAM path actually used.
	res.attempted = delta.Requests
	res.failed = delta.Misses + delta.Drops + delta.BadRequests
	if !st1.Clean() {
		res.problem("buffer not clean: %+v", st1)
	}
	share := ratio(float64(delta.Deliveries-delta.Bypasses), float64(delta.Deliveries))
	if share != 1 {
		res.problem("core.dram_path_share = %v, want 1 (warm-up did not fill DRAM)", share)
	}
	fillSubstrate(res, []pktbuf.Stats{delta}, []pktbuf.Stats{st1}, buf.Sizing())

	// Checkpoint: snapshot the full engine, restore it, and check that
	// the restored engine continues exactly like the original.
	var snap bytes.Buffer
	sp := tr.begin(spSnapshot, nil, 0)
	t := time.Now()
	if err := buf.Snapshot(&snap); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	snapD := time.Since(t)
	tr.end(&sp)
	sp = tr.begin(spRestore, nil, 0)
	t = time.Now()
	restored, err := pktbuf.Restore(bytes.NewReader(snap.Bytes()), simConfig())
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	restD := time.Since(t)
	tr.end(&sp)
	res.info["snapshot_s"] = snapD.Seconds()
	res.info["restore_s"] = restD.Seconds()
	res.layer["snapshot_s"] = snapD.Seconds()
	res.layer["restore_s"] = restD.Seconds()
	res.layer["snapshot.bytes"] = float64(snap.Len())
	res.layer["snapshot.ns_per_byte"] = ratio(float64(snapD), float64(snap.Len()))
	res.layer["restore.ns_per_byte"] = ratio(float64(restD), float64(snap.Len()))
	snapLen := snap.Len()
	snap = bytes.Buffer{} // free the 45 MB before the continuation check

	replayD, err := checkContinuation(res, buf, restored, arr, req, tr)
	if err != nil {
		return nil, err
	}
	res.layer["pktbuf.tickbatch_ns_per_slot"] = float64(replayD) / simCheckSlots
	genD, err := probeGenerators(restored)
	if err != nil {
		return nil, err
	}
	res.layer["sim.gen_ns_per_slot"] = float64(genD) / simCheckSlots
	res.note("timed phase: %.0f slots, %d deliveries, %d bypasses; snapshot %d bytes",
		slots, delta.Deliveries, delta.Bypasses, snapLen)
	return res, nil
}

// checkContinuation drives the original buffer slot by slot with the
// continuing arrival process and request policy, recording the
// inputs, then replays them through TickBatch on the restored buffer.
// Outputs and Stats must match exactly. It returns the replay time.
func checkContinuation(res *result, orig, restored *pktbuf.Buffer, arr sim.ArrivalProcess,
	req sim.RequestPolicy, tr *tracer) (time.Duration, error) {
	inputs := make([]pktbuf.Input, simCheckSlots)
	h1 := fnv.New64a()
	var rec [17]byte
	for i := range inputs {
		now := orig.Now()
		in := pktbuf.Input{Arrival: arr.Next(now), Request: req.Next(now, orig)}
		out, err := orig.Tick(in)
		if err != nil {
			return 0, fmt.Errorf("continuation slot %d: %w", i, err)
		}
		inputs[i] = in
		hashOutput(h1, &rec, out)
	}
	h2 := fnv.New64a()
	outs := make([]pktbuf.Output, simChunk)
	var replay time.Duration
	for k := 0; k < len(inputs); k += simChunk {
		sp := tr.begin(spTickBatch, nil, int64(k/simChunk))
		t := time.Now()
		n, err := restored.TickBatch(inputs[k:k+simChunk], outs)
		replay += time.Since(t)
		tr.end(&sp)
		if err != nil {
			return 0, fmt.Errorf("replay slot %d: %w", k+n, err)
		}
		for _, out := range outs[:n] {
			hashOutput(h2, &rec, out)
		}
	}
	if h1.Sum64() != h2.Sum64() {
		res.problem("restored engine diverged from the original over %d slots", simCheckSlots)
	}
	a, b := orig.Stats(), restored.Stats()
	a.FastForwardedSlots, b.FastForwardedSlots = 0, 0
	if a != b {
		res.problem("restored stats %+v != original %+v", b, a)
	}
	return replay, nil
}

// hashOutput folds one slot's output into h.
func hashOutput(h hash.Hash64, rec *[17]byte, out pktbuf.Output) {
	if !out.Ok {
		rec[0] = 0
		h.Write(rec[:1])
		return
	}
	rec[0] = 1
	if out.Bypassed {
		rec[0] = 2
	}
	q := uint64(out.Delivered.Queue)
	for i := 0; i < 8; i++ {
		rec[1+i] = byte(q >> (8 * i))
		rec[9+i] = byte(out.Delivered.Seq >> (8 * i))
	}
	h.Write(rec[:])
}

// probeSink keeps the generator probe's results live.
var probeSink pktbuf.Queue

// probeGenerators times the arrival generator and the request policy
// alone over the continuation span: fresh round-robin arrivals in
// RunBatch-sized chunks, and the drain policy against a loaded buffer
// view (not ticked, so every call finds its queue requestable).
func probeGenerators(view *pktbuf.Buffer) (time.Duration, error) {
	arr, err := sim.NewRoundRobinArrivals(simQueues, 1.0)
	if err != nil {
		return 0, err
	}
	batch, ok := arr.(sim.BatchArrivalProcess)
	if !ok {
		return 0, fmt.Errorf("round-robin arrivals are not batched")
	}
	req, err := sim.NewRoundRobinDrain(simQueues)
	if err != nil {
		return 0, err
	}
	qs := make([]pktbuf.Queue, simChunk)
	var sink pktbuf.Queue
	t := time.Now()
	for k := 0; k < simCheckSlots; k += simChunk {
		batch.NextBatch(uint64(k), qs)
		for i := 0; i < simChunk; i++ {
			sink ^= req.Next(uint64(k+i), view) ^ qs[i]
		}
	}
	d := time.Since(t)
	probeSink = sink
	return d, nil
}

// fillSubstrate sets the substrate metrics. deltas are timed-phase
// counter deltas (one per engine); peaks are run-wide Stats whose
// high-water marks are compared with the as-built Sizing.
func fillSubstrate(res *result, deltas, peaks []pktbuf.Stats, sz pktbuf.Sizing) {
	var deliv, byp uint64
	for _, d := range deltas {
		deliv += d.Deliveries
		byp += d.Bypasses
	}
	var tail, head, rr, skips int
	for _, p := range peaks {
		tail = max(tail, p.TailSRAMHighWater)
		head = max(head, p.HeadSRAMHighWater)
		rr = max(rr, p.MaxRequestRegisterOccupancy)
		skips = max(skips, p.MaxRequestSkips)
	}
	res.layer["core.dram_path_share"] = ratio(float64(deliv-byp), float64(deliv))
	res.layer["sram.tail_highwater_ratio"] = ratio(float64(tail), float64(sz.TailSRAMCells))
	res.layer["sram.head_highwater_ratio"] = ratio(float64(head), float64(sz.HeadSRAMCells))
	res.layer["dss.rr_highwater_ratio"] = ratio(float64(rr), float64(sz.RequestRegister))
	res.layer["mma.max_skips"] = float64(skips)
}

// slotClock maps simulated slots to the wall time at which the
// simulation reached them, interpolating between stamps taken at the
// start of each timed RunBatch call.
type slotClock struct {
	slots []uint64
	at    []time.Time
}

func (c *slotClock) stamp(slot uint64, at time.Time) {
	c.slots = append(c.slots, slot)
	c.at = append(c.at, at)
}

// wall returns the wall time at which slot s began; s must not precede
// the first stamp. Slots past the last stamp are in the running call
// and map to the last stamp plus the time per slot of the previous
// call.
func (c *slotClock) wall(s uint64) time.Time {
	i := sort.Search(len(c.slots), func(i int) bool { return c.slots[i] > s }) - 1
	if i < 0 {
		i = 0
	}
	j := i + 1
	if j == len(c.slots) {
		if i == 0 {
			return c.at[0]
		}
		i, j = i-1, i
	}
	frac := float64(s-c.slots[i]) / float64(c.slots[j]-c.slots[i])
	return c.at[i].Add(time.Duration(frac * float64(c.at[j].Sub(c.at[i]))))
}
