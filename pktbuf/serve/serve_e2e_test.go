package serve_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/router"
	"repro/pktbuf/serve"
	"repro/pktbuf/serve/wire"
	"repro/pktbuf/sim"
	"repro/pktbuf/trace"
)

func bufCfg(queues int) pktbuf.Config {
	return pktbuf.Config{Queues: queues, LineRate: pktbuf.OC768, Granularity: 2, Banks: 64}
}

// startServer builds a server, serves a loopback listener, and wires
// cleanup. It returns the server and the data-plane address.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeEndToEnd(t *testing.T) {
	srv, addr := startServer(t, serve.Config{Buffer: bufCfg(8)})
	c, err := serve.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Flows()); got != 4 {
		t.Fatalf("assigned %d flows, want 4", got)
	}
	w := c.Welcome()
	if w.Flows != 4 || w.IngressRing <= 0 || w.Window <= 0 {
		t.Fatalf("welcome = %+v", w)
	}
	// Deliveries must come back strictly sequential per VOQ.
	lastSeq := make(map[pktbuf.Queue]uint64)
	c.OnDeliver = func(cell pktbuf.Cell) {
		if want := lastSeq[cell.Queue]; cell.Seq != want {
			t.Errorf("queue %d delivered seq %d, want %d", cell.Queue, cell.Seq, want)
		}
		lastSeq[cell.Queue] = cell.Seq + 1
	}
	const perFlow = 50
	flows := c.Flows()
	burst := make([]pktbuf.Queue, 0, 16)
	for i := 0; i < perFlow; i++ {
		for _, q := range flows {
			burst = append(burst, q)
			if len(burst) == cap(burst) {
				if err := c.Submit(burst); err != nil {
					t.Fatal(err)
				}
				burst = burst[:0]
			}
		}
	}
	if err := c.Submit(burst); err != nil {
		t.Fatal(err)
	}
	total := uint64(perFlow * len(flows))
	waitFor(t, 10*time.Second, "all deliveries", func() bool {
		return c.Stats().Delivered == total
	})
	if st := c.Stats(); st.Rejected != 0 || st.InFlight != 0 {
		t.Fatalf("client stats = %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Bye(ctx); err != nil {
		t.Fatalf("Bye: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := srv.BufferStats()
	if st.Arrivals != total || st.Deliveries != total {
		t.Fatalf("server stats = %+v, want %d arrivals and deliveries", st, total)
	}
	if adm := srv.Admission(); adm.Admitted != total || adm.Rejected() != 0 {
		t.Fatalf("admission = %+v", adm)
	}
}

// TestServedRunMatchesReplay is the acceptance-criteria equivalence
// gate: a served run's engine statistics must be bit-identical to a
// pktbuf/sim replay of the recorded per-slot stimulus
// (FastForwardedSlots aside, which is excluded from equivalence by
// definition).
func TestServedRunMatchesReplay(t *testing.T) {
	cfg := serve.Config{Buffer: bufCfg(16), Record: true}
	srv, addr := startServer(t, cfg)
	clients := make([]*serve.Client, 2)
	for i := range clients {
		c, err := serve.Dial(addr, 4)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	for round := 0; round < 40; round++ {
		for i, c := range clients {
			flows := c.Flows()
			burst := []pktbuf.Queue{
				flows[round%len(flows)],
				flows[(round+i)%len(flows)],
				flows[(round*3+i)%len(flows)],
			}
			if err := c.Submit(burst); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range clients {
		if err := c.Bye(ctx); err != nil {
			t.Fatalf("Bye: %v", err)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	served := srv.BufferStats()
	tr := srv.Trace()
	if tr == nil || len(tr.Events) == 0 {
		t.Fatal("no trace recorded")
	}

	// Replay the stimulus through the batch sim against a fresh,
	// identically configured engine.
	buf, err := pktbuf.New(cfg.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	arr, req := trace.NewReplayer(tr).Halves()
	runner := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	res, err := runner.RunBatch(uint64(len(tr.Events)), 512)
	if err != nil {
		t.Fatal(err)
	}
	replayed := res.Stats
	served.FastForwardedSlots = 0
	replayed.FastForwardedSlots = 0
	if served != replayed {
		t.Fatalf("served run and replay diverged:\nserved:   %+v\nreplayed: %+v", served, replayed)
	}
	if served.Deliveries == 0 {
		t.Fatal("equivalence test delivered nothing")
	}
}

// rawSession is a hand-driven wire session for tests that must
// violate the polite Client's pacing.
type rawSession struct {
	t  *testing.T
	nc net.Conn
	w  *wire.Writer
	r  *wire.Reader

	flows     []pktbuf.Queue
	welcome   wire.Welcome
	delivered int
	rejects   []wire.Reject
}

func rawDial(t *testing.T, addr string, flows int) *rawSession {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	s := &rawSession{t: t, nc: nc, w: wire.NewWriter(nc), r: wire.NewReader(nc)}
	if err := s.w.WriteFrame(wire.THello, wire.Hello{Flows: flows}.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.w.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, p, err := s.r.Next()
	if err != nil || typ != wire.TWelcome {
		t.Fatalf("handshake frame 1: %v %v", typ, err)
	}
	if s.welcome, err = wire.ParseWelcome(p); err != nil {
		t.Fatal(err)
	}
	typ, p, err = s.r.Next()
	if err != nil || typ != wire.TFlows {
		t.Fatalf("handshake frame 2: %v %v", typ, err)
	}
	if err := wire.DecodeCells(p, wire.Deliveries, func(q pktbuf.Queue) error {
		s.flows = append(s.flows, q)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *rawSession) submit(qs []pktbuf.Queue) {
	s.t.Helper()
	if err := s.w.WriteCells(wire.TSubmit, wire.Arrivals, qs); err != nil {
		s.t.Fatal(err)
	}
	if err := s.w.Flush(); err != nil {
		s.t.Fatal(err)
	}
}

// pump reads one frame, folding deliveries and rejects into the
// session counters.
func (s *rawSession) pump() {
	s.t.Helper()
	s.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, p, err := s.r.Next()
	if err != nil {
		s.t.Fatalf("pump: %v", err)
	}
	switch typ {
	case wire.TDeliver:
		if err := wire.DecodeCells(p, wire.Deliveries, func(pktbuf.Queue) error {
			s.delivered++
			return nil
		}); err != nil {
			s.t.Fatal(err)
		}
	case wire.TReject:
		rej, err := wire.ParseReject(p)
		if err != nil {
			s.t.Fatal(err)
		}
		s.rejects = append(s.rejects, rej)
	case wire.TDrain, wire.TBye:
		// Shutdown notices; nothing to fold.
	default:
		s.t.Fatalf("pump: unexpected %v frame", typ)
	}
}

// TestAdmissionBackpressure overruns each bounded admission resource
// with raw frames and verifies the typed rejection plus a successful
// resume once the backlog drains — the serving daemon's backpressure
// contract end to end.
func TestAdmissionBackpressure(t *testing.T) {
	cases := []struct {
		name string
		cfg  serve.Config
		// burst builds the overrunning submit from the assigned flows.
		burst    func(flows []pktbuf.Queue) []pktbuf.Queue
		wantCode wire.Code
		wantErr  error
	}{
		{
			name: "ingress_full",
			cfg: serve.Config{
				Buffer:      bufCfg(8),
				IngressRing: 8,
				Batch:       1,
				TickEvery:   200 * time.Microsecond,
			},
			burst: func(flows []pktbuf.Queue) []pktbuf.Queue {
				qs := make([]pktbuf.Queue, 64)
				for i := range qs {
					qs[i] = flows[i%len(flows)]
				}
				return qs
			},
			wantCode: wire.CodeIngressFull,
			wantErr:  router.ErrIngressFull,
		},
		{
			name: "window_full",
			cfg: serve.Config{
				Buffer:      bufCfg(8),
				IngressRing: 256,
				Window:      4,
				// Pace the loop so the window cannot drain mid-burst.
				Batch:     1,
				TickEvery: 200 * time.Microsecond,
			},
			burst: func(flows []pktbuf.Queue) []pktbuf.Queue {
				qs := make([]pktbuf.Queue, 16)
				for i := range qs {
					qs[i] = flows[i%len(flows)]
				}
				return qs
			},
			wantCode: wire.CodeWindowFull,
			wantErr:  pktbuf.ErrBufferFull,
		},
		{
			name: "bad_flow",
			cfg:  serve.Config{Buffer: bufCfg(8)},
			burst: func(flows []pktbuf.Queue) []pktbuf.Queue {
				return []pktbuf.Queue{flows[0], 7777}
			},
			wantCode: wire.CodeBadFlow,
			wantErr:  router.ErrBadFlow,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, tc.cfg)
			s := rawDial(t, addr, 2)
			burst := tc.burst(s.flows)
			s.submit(burst)
			for len(s.rejects) == 0 {
				s.pump()
			}
			rej := s.rejects[0]
			if rej.Code != tc.wantCode {
				t.Fatalf("reject code = %q, want %q", rej.Code, tc.wantCode)
			}
			if !errors.Is(serve.CodeErr(rej.Code), tc.wantErr) {
				t.Fatalf("CodeErr(%q) = %v, not %v", rej.Code, serve.CodeErr(rej.Code), tc.wantErr)
			}
			if rej.Accepted+rej.Dropped != len(burst) {
				t.Fatalf("reject partitions %d+%d cells, burst had %d",
					rej.Accepted, rej.Dropped, len(burst))
			}
			if rej.Dropped == 0 {
				t.Fatal("reject dropped nothing")
			}
			if tc.wantCode != wire.CodeBadFlow && rej.RetrySlots == 0 {
				t.Fatalf("reject carries no retry hint: %+v", rej)
			}
			// Drain: every admitted cell must still be delivered.
			for s.delivered < rej.Accepted {
				s.pump()
			}
			// Resume: a polite burst after the drain is admitted in full
			// and delivered — the rejection was backpressure, not a wedged
			// connection.
			resume := []pktbuf.Queue{s.flows[0], s.flows[1]}
			s.submit(resume)
			for s.delivered < rej.Accepted+len(resume) {
				s.pump()
			}
			if len(s.rejects) != 1 {
				t.Fatalf("resume was rejected: %+v", s.rejects[1:])
			}
			got := srv.Admission()
			if got.Rejected() != uint64(rej.Dropped) {
				t.Fatalf("server counted %d rejects, want %d", got.Rejected(), rej.Dropped)
			}
		})
	}
}

// TestGracefulDrain covers the shutdown path: Drain is announced,
// in-flight cells are delivered, new submits are refused with the
// draining code, and the server confirms each connection with a final
// Bye.
func TestGracefulDrain(t *testing.T) {
	srv, addr := startServer(t, serve.Config{Buffer: bufCfg(8)})
	c, err := serve.Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	flows := c.Flows()
	for i := 0; i < 20; i++ {
		if err := c.Submit([]pktbuf.Queue{flows[i%2]}); err != nil {
			t.Fatal(err)
		}
	}
	// Make sure the server holds the cells before draining starts, so
	// the drain actually has work to flush.
	waitFor(t, 10*time.Second, "server admission", func() bool {
		return srv.Admission().Admitted == 20
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client never saw the server close")
	}
	if !c.Draining() {
		t.Fatal("client never saw Drain")
	}
	if st := c.Stats(); st.Delivered != 20 || st.InFlight != 0 {
		t.Fatalf("client stats after drain = %+v", st)
	}
	if err := c.Submit([]pktbuf.Queue{flows[0]}); !errors.Is(err, serve.ErrDraining) && err == nil {
		t.Fatalf("submit after drain = %v, want error", err)
	}
}

// TestDrainingRejectsRawSubmit pins the reject code a client sees
// when it submits into a draining server. A paced sibling connection
// keeps cells in flight so the drain window stays open while the raw
// session submits.
func TestDrainingRejectsRawSubmit(t *testing.T) {
	srv, addr := startServer(t, serve.Config{
		Buffer:    bufCfg(64),
		TickEvery: 500 * time.Microsecond,
	})
	// Sibling with a deep backlog: draining it takes a few hundred
	// paced slots.
	sib, err := serve.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	burst := make([]pktbuf.Queue, 0, 200)
	for i := 0; i < 200; i++ {
		burst = append(burst, sib.Flows()[i%4])
	}
	if err := sib.Submit(burst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "sibling admission", func() bool {
		return srv.Admission().Admitted == 200
	})
	s := rawDial(t, addr, 1)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	// The health endpoint flips to "draining" once the flag is set;
	// from then on every new cell must be refused.
	h := srv.Handler()
	waitFor(t, 5*time.Second, "draining health state", func() bool {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code == 503
	})
	s.submit([]pktbuf.Queue{s.flows[0]})
	for len(s.rejects) == 0 {
		s.pump()
	}
	if got := s.rejects[0].Code; got != wire.CodeDraining {
		t.Fatalf("reject code while draining = %q, want %q", got, wire.CodeDraining)
	}
	if !errors.Is(serve.CodeErr(wire.CodeDraining), serve.ErrDraining) {
		t.Fatal("CodeDraining does not map to ErrDraining")
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := sib.Stats(); st.Delivered != 200 {
		t.Fatalf("sibling delivered %d cells through the drain, want 200", st.Delivered)
	}
}

// TestShutdownByesSilentPeer drains a peer that never answers Drain
// with Bye, as a hand-rolled client may not: Shutdown must still
// deliver its cells, confirm with the final Bye and return nil well
// before its context expires.
func TestShutdownByesSilentPeer(t *testing.T) {
	srv, addr := startServer(t, serve.Config{Buffer: bufCfg(8)})
	s := rawDial(t, addr, 2)
	s.submit([]pktbuf.Queue{s.flows[0], s.flows[1], s.flows[0]})
	waitFor(t, 10*time.Second, "admission", func() bool {
		return srv.Admission().Admitted == 3
	})
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	for {
		s.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, p, err := s.r.Next()
		if err != nil {
			t.Fatalf("no final Bye: %v", err)
		}
		if typ == wire.TBye {
			break
		}
		if typ == wire.TDeliver {
			wire.DecodeCells(p, wire.Deliveries, func(pktbuf.Queue) error {
				s.delivered++
				return nil
			})
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if s.delivered != 3 {
		t.Fatalf("delivered %d cells before the final Bye, want 3", s.delivered)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Shutdown took %v waiting for a Bye that never came", d)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	srv, addr := startServer(t, serve.Config{Buffer: bufCfg(8)})
	c, err := serve.Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	flows := c.Flows()
	for i := 0; i < 10; i++ {
		if err := c.Submit([]pktbuf.Queue{flows[i%2]}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "deliveries", func() bool { return c.Stats().Delivered == 10 })

	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"pktbufd_arrivals_total 10",
		"pktbufd_deliveries_total 10",
		"pktbufd_admitted_cells_total 10",
		"pktbufd_admission_rejects_total 0",
		fmt.Sprintf("pktbufd_connections %d", 1),
		"# TYPE pktbufd_serving_batch_duration_seconds histogram",
		"pktbufd_serving_batch_duration_seconds_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.Bye(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("healthz after shutdown = %d, want 503", rec.Code)
	}
}
