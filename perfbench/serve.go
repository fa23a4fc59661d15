package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/serve"
	"repro/pktbuf/serve/wire"
)

// Serving workload settings: pktbufd's defaults at 16k queues.
const (
	svQueues      = 16384
	svClients     = 2
	svFlows       = 5000
	svBurst       = 64
	svClosedOut   = 1024 // cells each closed-loop client keeps outstanding
	svPacedRate   = 100000
	svPacedTick   = time.Millisecond // open-loop send schedule
	svCkptEvery   = time.Second
	svSetupReps   = 9
	svByeTimeout  = 30 * time.Second
	svProbeBursts = 4096 // bursts kept for the wire codec probe
)

func serveConfig(resumable bool) serve.Config {
	return serve.Config{
		Buffer:    pktbuf.Config{Queues: svQueues, LineRate: pktbuf.OC768, Granularity: 2, Banks: 256},
		Resumable: resumable,
	}
}

// ---------------------------------------------------------------- sockets

// connCounters counts one direction's socket writes.
type connCounters struct {
	writes, bytes, ns atomic.Int64
	timed             *tracer // times writes while tracing is on
}

// countingConn counts the writes made on a connection.
type countingConn struct {
	net.Conn
	c *connCounters
}

func (c countingConn) Write(p []byte) (int, error) {
	var t time.Time
	timed := c.c.timed.active()
	if timed {
		t = time.Now()
	}
	n, err := c.Conn.Write(p)
	if timed {
		c.c.ns.Add(int64(time.Since(t)))
	}
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

// countingListener wraps every accepted connection.
type countingListener struct {
	net.Listener
	c *connCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: nc, c: l.c}, nil
}

// ---------------------------------------------------------------- stack

// serveStack is one server on a loopback listener with its clients.
type serveStack struct {
	srv      *serve.Server
	serveErr chan error
	clients  []*serve.Client
	ledgers  []*ledger
	up, down *connCounters // client writes, server writes
}

// startStack builds the server, listens on 127.0.0.1 and dials the
// clients. With a tracer, sockets are wrapped in write counters.
func startStack(cfg serve.Config, base time.Time, tr *tracer) (*serveStack, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	st := &serveStack{srv: srv, serveErr: make(chan error, 1)}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var served net.Listener = lis
	if tr != nil {
		st.up, st.down = &connCounters{timed: tr}, &connCounters{timed: tr}
		served = countingListener{Listener: lis, c: st.down}
	}
	go func() { st.serveErr <- srv.Serve(served) }()
	addr := lis.Addr().String()
	for i := 0; i < svClients; i++ {
		dc := serve.DialConfig{Addr: addr, Flows: svFlows}
		if st.up != nil {
			up := st.up
			dc.Dialer = func() (net.Conn, error) {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return countingConn{Conn: nc, c: up}, nil
			}
		}
		c, err := serve.DialWith(dc)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		l, err := newLedger(base, c.Flows(), svQueues)
		if err != nil {
			c.Close()
			st.close()
			return nil, err
		}
		c.OnDeliver = l.onDeliver
		st.clients = append(st.clients, c)
		st.ledgers = append(st.ledgers, l)
	}
	return st, nil
}

// close tears the stack down without draining and waits for Serve.
func (st *serveStack) close() {
	for _, c := range st.clients {
		c.Close()
	}
	st.srv.Close()
	<-st.serveErr
}

// batchSeries reads the serving-loop batch counters from /metrics:
// slots ticked through batches, batch count and summed batch seconds.
func batchSeries(srv *serve.Server) (slots, count, sum float64, err error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		var dst *float64
		switch name {
		case "pktbufd_serving_batch_slots_total":
			dst = &slots
		case "pktbufd_serving_batch_duration_seconds_count":
			dst = &count
		case "pktbufd_serving_batch_duration_seconds_sum":
			dst = &sum
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(val, 64); err != nil {
			return 0, 0, 0, fmt.Errorf("metrics: %s: %w", name, err)
		}
	}
	return slots, count, sum, sc.Err()
}

// ---------------------------------------------------------------- load

// loadGen is one connection's load generator: the only goroutine that
// submits on its client.
type loadGen struct {
	id    int
	c     *serve.Client
	l     *ledger
	rng   *rand.Rand
	tr    *tracer
	stop  *atomic.Bool
	fs    []uint16
	due   []int64
	qs    []pktbuf.Queue
	lag   []float64 // open loop: ms behind schedule at each send
	probe [][]pktbuf.Queue
	reqID int64
}

// send submits the burst held in fs/due.
func (g *loadGen) send(parent *spanH) error {
	g.qs = g.qs[:0]
	for _, f := range g.fs {
		g.qs = append(g.qs, g.l.flows[f])
	}
	if g.tr != nil && len(g.probe) < svProbeBursts {
		g.probe = append(g.probe, append([]pktbuf.Queue(nil), g.qs...))
	}
	g.l.submitted(g.fs, g.due, g.l.since(time.Now()))
	sp := g.tr.begin(spSubmit, parent, g.reqID)
	err := g.c.Submit(g.qs)
	g.tr.end(&sp)
	g.reqID++
	if err != nil {
		return fmt.Errorf("client %d submit: %w", g.id, err)
	}
	// Reject frames are read before any later delivery; note when they
	// are first seen, which bounds the bursts they can refer to.
	if rej := g.c.Rejects(); len(rej) > len(g.l.rejSeen) {
		g.l.sawRejects(len(rej), g.c.Stats().Rejected, g.l.since(time.Now()))
	}
	return nil
}

// drawFlows fills fs with n uniformly drawn flows all due at due.
func (g *loadGen) drawFlows(n int, due int64) {
	g.fs, g.due = g.fs[:0], g.due[:0]
	for i := 0; i < n; i++ {
		g.fs = append(g.fs, uint16(g.rng.Intn(len(g.l.flows))))
		g.due = append(g.due, due)
	}
}

// closedLoop keeps svClosedOut cells outstanding in svBurst bursts;
// each cell is due when its burst is submitted.
func (g *loadGen) closedLoop() error {
	wait := time.NewTimer(time.Hour)
	defer wait.Stop()
	for !g.stop.Load() {
		if g.l.outstanding()+svBurst > svClosedOut {
			wait.Reset(time.Millisecond)
			select {
			case <-g.l.notify:
			case <-wait.C:
				if rej := g.c.Rejects(); len(rej) > len(g.l.rejSeen) {
					g.l.sawRejects(len(rej), g.c.Stats().Rejected, g.l.since(time.Now()))
				}
			}
			if !wait.Stop() {
				select {
				case <-wait.C:
				default:
				}
			}
			continue
		}
		sp := g.tr.begin(spBenchBurst, nil, g.reqID)
		g.drawFlows(svBurst, g.l.since(time.Now()))
		err := g.send(&sp)
		g.tr.end(&sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// pacedLoop offers rate cells/s on a fixed schedule: cell k is due at
// start + k/rate, and the cells due by each svPacedTick boundary are
// sent then, in bursts of at most svBurst. Latency counts from each
// cell's due time, so a stall delays every cell behind it.
func (g *loadGen) pacedLoop(start time.Time, rate float64) error {
	interval := float64(time.Second) / rate
	s0 := g.l.since(start)
	k := int64(0)
	for tick := int64(1); !g.stop.Load(); tick++ {
		at := start.Add(time.Duration(tick) * svPacedTick)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		limit := g.l.since(at)
		for {
			g.fs, g.due = g.fs[:0], g.due[:0]
			for len(g.fs) < svBurst {
				due := s0 + int64(float64(k)*interval)
				if due > limit {
					break
				}
				g.fs = append(g.fs, uint16(g.rng.Intn(len(g.l.flows))))
				g.due = append(g.due, due)
				k++
			}
			if len(g.fs) == 0 {
				break
			}
			g.lag = append(g.lag, ms(time.Since(at)))
			sp := g.tr.begin(spBenchBurst, nil, g.reqID)
			err := g.send(&sp)
			g.tr.end(&sp)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------- workloads

func runServeClosed(o options, tr *tracer) (*result, error) { return runServe(o, tr, false) }
func runServePaced(o options, tr *tracer) (*result, error)  { return runServe(o, tr, true) }

func runServe(o options, tr *tracer, paced bool) (*result, error) {
	res := newResult(o.workload)
	cfg := serveConfig(paced)
	base := time.Now()
	var st *serveStack
	setup, err := medianSetup(svSetupReps, func(last bool) (time.Duration, error) {
		t0 := time.Now()
		s, err := startStack(cfg, base, tr)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if last {
			st = s
		} else {
			s.close()
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	var stop atomic.Bool
	gens := make([]*loadGen, svClients)
	for i := range gens {
		gens[i] = &loadGen{id: i, c: st.clients[i], l: st.ledgers[i],
			rng: seedRand(o.seed, int64(200+i)), tr: tr, stop: &stop}
	}
	nw, wlen := planWindows(o)
	bounds := make([]time.Time, nw+1)
	slotMarks := make([]uint64, nw+1)
	var ckpts []float64
	var ckptBytes int
	var lastCkpt []byte

	bs0, bc0, bsum0, err := batchSeries(st.srv)
	if err != nil {
		st.close()
		return nil, err
	}
	stats0 := st.srv.BufferStats()
	u0 := takeUsage()
	start := time.Now()
	bounds[0], slotMarks[0] = start, st.srv.Slots()
	var wg sync.WaitGroup
	errs := make([]error, svClients)
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g *loadGen) {
			defer wg.Done()
			if paced {
				errs[i] = g.pacedLoop(start, svPacedRate/svClients)
			} else {
				errs[i] = g.closedLoop()
			}
		}(i, g)
	}
	var ckptBuf bytes.Buffer
	nextCkpt := start.Add(svCkptEvery)
	for i := 0; i < nw; i++ {
		tr.setOn(windowTraced(o, i))
		end := start.Add(time.Duration(i+1) * wlen)
		for now := time.Now(); now.Before(end); now = time.Now() {
			if paced && !now.Before(nextCkpt) {
				ckptBuf.Reset()
				sp := tr.begin(spCheckpoint, nil, int64(len(ckpts)))
				t := time.Now()
				if err := st.srv.Checkpoint(&ckptBuf); err != nil {
					stop.Store(true)
					wg.Wait()
					st.close()
					return nil, fmt.Errorf("checkpoint: %w", err)
				}
				ckpts = append(ckpts, ms(time.Since(t)))
				tr.end(&sp)
				ckptBytes = ckptBuf.Len()
				nextCkpt = nextCkpt.Add(svCkptEvery)
				continue
			}
			wake := end
			if paced && nextCkpt.Before(wake) {
				wake = nextCkpt
			}
			time.Sleep(time.Until(wake))
		}
		bounds[i+1], slotMarks[i+1] = time.Now(), st.srv.Slots()
	}
	stop.Store(true)
	wg.Wait()
	u1 := takeUsage()
	stats1 := st.srv.BufferStats()
	bs1, bc1, bsum1, err := batchSeries(st.srv)
	tr.setOn(o.trace)
	for _, e := range errs {
		if e != nil {
			st.close()
			return nil, e
		}
	}
	if err != nil {
		st.close()
		return nil, err
	}
	if paced {
		lastCkpt = append([]byte(nil), ckptBuf.Bytes()...)
	}

	// Drain: Bye waits until the server has delivered everything.
	ctx, cancel := context.WithTimeout(context.Background(), svByeTimeout)
	for i, c := range st.clients {
		if err := c.Bye(ctx); err != nil {
			res.problem("client %d bye: %v", i, err)
			c.Close()
		}
		// The ledger is read below; its reader goroutine must be done.
		select {
		case <-c.Done():
		case <-ctx.Done():
			cancel()
			st.close()
			return nil, fmt.Errorf("client %d did not finish after bye", i)
		}
	}
	cancel()
	adm := st.srv.Admission()

	// Exactly-once ledger, reject attribution and latency pairing.
	var samples []sample
	var submitted, dropped, received uint64
	for i, l := range st.ledgers {
		c := st.clients[i]
		r, err := l.resolve(c.Rejects(), c.Received)
		if err != nil {
			res.problem("client %d: %v", i, err)
		}
		samples = append(samples, r.samples...)
		submitted += r.submitted
		dropped += r.dropped
		received += r.received
	}
	res.attempted = submitted
	res.failed = submitted - received
	if submitted-dropped != received {
		res.problem("%d cells submitted, %d refused, %d received", submitted, dropped, received)
	}

	// Windows: latency by due time, cells by delivery time.
	ws := make([]window, nw)
	edges := make([]int64, nw+1)
	for i := range edges {
		edges[i] = int64(bounds[i].Sub(base))
	}
	for i := range ws {
		ws[i].traced = windowTraced(o, i)
		ws[i].seconds = bounds[i+1].Sub(bounds[i]).Seconds()
		ws[i].slots = float64(slotMarks[i+1] - slotMarks[i])
	}
	for _, s := range samples {
		if i := windowOf(edges, s.due); i >= 0 {
			lat := math.Inf(1)
			if s.lat != refusedLat {
				lat = float64(s.lat) / 1e6
			}
			ws[i].lat = append(ws[i].lat, lat)
		}
	}
	var deliveredTimed float64
	for _, l := range st.ledgers {
		for _, at := range l.delAt {
			if i := windowOf(edges, at); i >= 0 {
				ws[i].cells++
				deliveredTimed++
			}
		}
	}
	fillWindowMetrics(res, o, ws)
	fillRuntime(res, u0, u1, deliveredTimed)

	// Per-layer figures.
	delta := stats1.Sub(stats0)
	slots := float64(slotMarks[nw] - slotMarks[0])
	fillSubstrate(res, []pktbuf.Stats{delta}, []pktbuf.Stats{st.srv.BufferStats()}, st.srv.Sizing())
	if !st.srv.BufferStats().Clean() {
		res.problem("engine not clean: %+v", st.srv.BufferStats())
	}
	res.layer["serve.slots_per_cell"] = ratio(slots, deliveredTimed)
	res.layer["serve.ff_share"] = ratio(float64(delta.FastForwardedSlots), slots)
	res.layer["serve.batch_us_mean"] = ratio((bsum1-bsum0)*1e6, bc1-bc0)
	res.layer["serve.slots_per_batch"] = ratio(bs1-bs0, bc1-bc0)
	res.layer["serve.rejects_ingress_full"] = float64(adm.RejectedIngressFull)
	res.layer["serve.rejects_window_full"] = float64(adm.RejectedWindowFull)
	res.layer["serve.rejects_draining"] = float64(adm.RejectedDraining)
	res.layer["serve.rejects_bad_flow"] = float64(adm.RejectedBadFlow)
	var lag, submitNs []float64
	var probe [][]pktbuf.Queue
	for _, g := range gens {
		lag = append(lag, g.lag...)
		probe = append(probe, g.probe...)
	}
	submitNs = tr.durations(spSubmit)
	res.layer["client.submit_us_p50"] = quantile(submitNs, 0.50) / 1e3
	res.layer["client.submit_us_p99"] = quantile(submitNs, 0.99) / 1e3
	if paced {
		res.layer["loadgen.lag_p99_ms"] = quantile(lag, 0.99)
	}
	if st.up != nil {
		up, down := float64(submitted), received
		res.layer["wire.bytes_per_cell_up"] = ratio(float64(st.up.bytes.Load()), up)
		res.layer["wire.bytes_per_cell_down"] = ratio(float64(st.down.bytes.Load()), float64(down))
		res.layer["tcp.writes_per_cell_up"] = ratio(float64(st.up.writes.Load()), up)
		res.layer["tcp.writes_per_cell_down"] = ratio(float64(st.down.writes.Load()), float64(down))
		res.layer["tcp.write_ns_per_cell"] = ratio(float64(st.up.ns.Load()+st.down.ns.Load()), tracedCells(ws))
	}
	if o.trace {
		enc, dec, err := probeWire(probe)
		if err != nil {
			st.close()
			return nil, err
		}
		res.layer["wire.encode_ns_per_cell"] = enc
		res.layer["wire.decode_ns_per_cell"] = dec
	}
	if paced {
		res.info["ckpt_pause_ms"] = median(ckpts)
		res.layer["ckpt_pause_ms"] = median(ckpts)
		res.layer["serve.ckpt_bytes"] = float64(ckptBytes)
		res.layer["snapshot_s"] = median(ckpts) / 1e3
		res.layer["snapshot.bytes"] = float64(ckptBytes)
		res.layer["snapshot.ns_per_byte"] = ratio(median(ckpts)*1e6, float64(ckptBytes))
		sp := tr.begin(spRestoreServer, nil, 0)
		t := time.Now()
		rs, err := serve.RestoreServer(bytes.NewReader(lastCkpt), cfg)
		d := time.Since(t)
		tr.end(&sp)
		if err != nil {
			res.problem("restore checkpoint: %v", err)
		} else {
			rs.Close()
		}
		res.layer["restore_s"] = d.Seconds()
		res.layer["restore.ns_per_byte"] = ratio(float64(d), float64(len(lastCkpt)))
		res.note("checkpoints: %d, median pause %.3f ms, %d bytes", len(ckpts), median(ckpts), ckptBytes)
	}
	res.note("cells: %d submitted, %d refused, %d delivered; %.0f slots in the timed phase; rejects by code: ingress_full=%d window_full=%d draining=%d bad_flow=%d",
		submitted, dropped, received, slots, adm.RejectedIngressFull, adm.RejectedWindowFull,
		adm.RejectedDraining, adm.RejectedBadFlow)

	sctx, scancel := context.WithTimeout(context.Background(), svByeTimeout)
	defer scancel()
	if err := st.srv.Shutdown(sctx); err != nil {
		res.problem("shutdown: %v", err)
	}
	st.close()
	return res, nil
}

// windowOf returns the window whose [edges[i], edges[i+1]) holds t, or
// -1 outside the timed phase.
func windowOf(edges []int64, t int64) int {
	if t < edges[0] || t >= edges[len(edges)-1] {
		return -1
	}
	for i := 1; i < len(edges); i++ {
		if t < edges[i] {
			return i - 1
		}
	}
	return -1
}

// tracedCells sums the delivered cells of traced windows.
func tracedCells(ws []window) float64 {
	n := 0.0
	for _, w := range ws {
		if w.traced {
			n += w.cells
		}
	}
	return n
}

// probeWire times wire.WriteCells and wire.DecodeCells on the run's
// own Submit bursts and returns ns per cell for each.
func probeWire(bursts [][]pktbuf.Queue) (enc, dec float64, err error) {
	if len(bursts) == 0 {
		return 0, 0, nil
	}
	const reps = 5
	var out bytes.Buffer
	w := wire.NewWriter(&out)
	cells := 0
	var encD time.Duration
	for r := 0; r < reps; r++ {
		out.Reset()
		t := time.Now()
		for _, qs := range bursts {
			if err := w.WriteCells(wire.TSubmit, wire.Arrivals, qs); err != nil {
				return 0, 0, err
			}
			cells += len(qs)
		}
		if err := w.Flush(); err != nil {
			return 0, 0, err
		}
		encD += time.Since(t)
	}
	rd := wire.NewReader(bytes.NewReader(out.Bytes()))
	var payloads [][]byte
	for range bursts {
		_, p, err := rd.Next()
		if err != nil {
			return 0, 0, err
		}
		payloads = append(payloads, append([]byte(nil), p...))
	}
	decoded := 0
	count := func(pktbuf.Queue) error { decoded++; return nil }
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range payloads {
			if err := wire.DecodeCells(p, wire.Arrivals, count); err != nil {
				return 0, 0, err
			}
		}
	}
	decD := time.Since(t)
	if decoded != cells {
		return 0, 0, fmt.Errorf("wire probe decoded %d cells of %d", decoded, cells)
	}
	return float64(encD) / float64(cells), float64(decD) / float64(decoded), nil
}
