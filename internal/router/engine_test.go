package router

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

// slotRecord is a comparable snapshot of one slot's egress (payloads
// copied, since Egress payloads alias reassembler scratch).
type slotRecord struct {
	output, input int
	flow          int
	payload       []byte
}

// TestEngineMatchesSerialRouter pins the determinism claim: the
// sharded engine stepped one slot per StepBatch call produces an
// egress stream, stats and buffer verdicts bit-identical to the serial
// oracle on the same offered workload, for every worker striping
// (buffer stats compared apart from FastForwardedSlots: the engine
// skips quiescent slots the oracle ticks).
func TestEngineMatchesSerialRouter(t *testing.T) {
	const ports, classes, slots = 4, 2, 8000
	bufCfg := core.Config{B: 8, Bsmall: 2, Banks: 16}
	for _, workers := range []int{0, 2, 3} {
		serial, err := newSerialRouter(Config{Ports: ports, Classes: classes, Buffer: bufCfg, SchedulerIterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(Config{Ports: ports, Classes: classes, Buffer: bufCfg, SchedulerIterations: 2}, workers)
		if err != nil {
			t.Fatal(err)
		}
		rngA := rand.New(rand.NewSource(42))
		rngB := rand.New(rand.NewSource(42))
		for slot := 0; slot < slots; slot++ {
			a := driveWorkload(t, rngA, serial.Offer, serial.Step, serial, ports, classes)
			b := driveWorkload(t, rngB, eng.Offer, stepOne(eng), serial, ports, classes)
			if len(a) != len(b) {
				t.Fatalf("workers=%d slot %d: serial %d egress, sharded %d", workers, slot, len(a), len(b))
			}
			for k := range a {
				if a[k].output != b[k].output || a[k].input != b[k].input ||
					a[k].flow != b[k].flow || !bytes.Equal(a[k].payload, b[k].payload) {
					t.Fatalf("workers=%d slot %d egress %d: serial %+v, sharded %+v",
						workers, slot, k, a[k], b[k])
				}
			}
		}
		if serial.Stats() != eng.Stats() {
			t.Errorf("workers=%d: stats diverged: serial %+v, sharded %+v", workers, serial.Stats(), eng.Stats())
		}
		for p := 0; p < ports; p++ {
			ss, es := serial.BufferStats(p), eng.BufferStats(p)
			ss.FastForwardedSlots, es.FastForwardedSlots = 0, 0
			if ss != es {
				t.Errorf("workers=%d port %d: buffer stats diverged", workers, p)
			}
			if !eng.BufferStats(p).Clean() {
				t.Errorf("workers=%d port %d: buffer not clean: %+v", workers, p, eng.BufferStats(p))
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// stepOne steps an engine one slot per call, reusing one egress slice.
func stepOne(e *Engine) func() ([]Egress, error) {
	var out []Egress
	return func() ([]Egress, error) {
		var err error
		out, err = e.StepBatch(1, out[:0])
		return out, err
	}
}

// driveWorkload offers a seeded slot workload and steps once; rv maps
// VOQ ids through the oracle so both sides use one mapping.
func driveWorkload(t *testing.T, rng *rand.Rand, offer func(int, packet.Packet) error,
	step func() ([]Egress, error), rv *serialRouter, ports, classes int) []slotRecord {
	t.Helper()
	if rng.Intn(3) == 0 {
		in := rng.Intn(ports)
		out := rng.Intn(ports)
		class := rng.Intn(classes)
		payload := make([]byte, rng.Intn(4*packet.CellPayload))
		rng.Read(payload)
		err := offer(in, packet.Packet{Flow: rv.VOQ(out, class), Payload: payload})
		if err != nil && !errors.Is(err, ErrIngressFull) {
			t.Fatal(err)
		}
	}
	eg, err := step()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]slotRecord, 0, len(eg))
	for _, e := range eg {
		recs = append(recs, slotRecord{
			output: e.Output, input: e.Input, flow: int(e.Packet.Flow),
			payload: append([]byte(nil), e.Packet.Payload...),
		})
	}
	return recs
}

// TestEngineStepBatch: one StepBatch(slots) call is identical to slots
// one-slot calls, and appends into the caller's slice.
func TestEngineStepBatch(t *testing.T) {
	bufCfg := core.Config{B: 8, Bsmall: 2, Banks: 16}
	a, err := NewEngine(Config{Ports: 2, Classes: 1, Buffer: bufCfg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(Config{Ports: 2, Classes: 1, Buffer: bufCfg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	payload := bytes.Repeat([]byte{3}, 2*packet.CellPayload)
	for port := 0; port < 2; port++ {
		for k := 0; k < 5; k++ {
			if err := a.Offer(port, packet.Packet{Flow: a.VOQ(1-port, 0), Payload: payload}); err != nil {
				t.Fatal(err)
			}
			if err := b.Offer(port, packet.Packet{Flow: b.VOQ(1-port, 0), Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const slots = 3000
	var fromStep []Egress
	step := stepOne(a)
	for s := 0; s < slots; s++ {
		eg, err := step()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range eg {
			e.Packet.Payload = append([]byte(nil), e.Packet.Payload...)
			fromStep = append(fromStep, e)
		}
	}
	fromBatch, err := b.StepBatch(slots, make([]Egress, 0, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromStep) != len(fromBatch) {
		t.Fatalf("step delivered %d, batch %d", len(fromStep), len(fromBatch))
	}
	for k := range fromStep {
		if fromStep[k].Output != fromBatch[k].Output || fromStep[k].Input != fromBatch[k].Input ||
			!bytes.Equal(fromStep[k].Packet.Payload, fromBatch[k].Packet.Payload) {
			t.Fatalf("egress %d diverged", k)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestEngineOfferBatch: partial acceptance stops at ErrIngressFull.
func TestEngineOfferBatch(t *testing.T) {
	e, err := NewEngine(Config{
		Ports: 2, Classes: 1,
		Buffer:     core.Config{B: 8, Bsmall: 2, Banks: 16},
		IngressCap: 4,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]packet.Packet, 3)
	for k := range ps {
		ps[k] = packet.Packet{Flow: 0, Payload: bytes.Repeat([]byte{1}, 2*packet.CellPayload)}
	}
	n, err := e.OfferBatch(0, ps)
	if n != 2 || !errors.Is(err, ErrIngressFull) {
		t.Errorf("OfferBatch = %d, %v; want 2, ErrIngressFull", n, err)
	}
	if got := e.IngressBacklog(0); got != 4 {
		t.Errorf("backlog = %d", got)
	}
	if n, err := e.OfferBatch(5, ps); n != 0 || !errors.Is(err, ErrBadPort) {
		t.Errorf("OfferBatch bad port = %d, %v", n, err)
	}
}

// TestEngineClose: a closed engine rejects further use and Close is
// idempotent.
func TestEngineClose(t *testing.T) {
	e, err := NewEngine(Config{Ports: 2, Classes: 1, Buffer: core.Config{B: 8, Bsmall: 2, Banks: 16}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepBatch(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepBatch(1, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("StepBatch after Close: %v", err)
	}
	if err := e.Offer(0, packet.Packet{Flow: 0}); !errors.Is(err, ErrClosed) {
		t.Errorf("Offer after Close: %v", err)
	}
	if _, err := e.OfferBatch(0, []packet.Packet{{Flow: 0}}); !errors.Is(err, ErrClosed) {
		t.Errorf("OfferBatch after Close: %v", err)
	}
}

// TestConfigErrorsWrapBadConfig: router config rejections fold into
// the core typed taxonomy.
func TestConfigErrorsWrapBadConfig(t *testing.T) {
	cases := []Config{
		{Ports: 0},
		{Ports: -3},
		{Ports: 2, Classes: -1},
		{Ports: 2, Buffer: core.Config{B: 8, Bsmall: 3, Banks: 16}}, // b does not divide B
	}
	for i, cfg := range cases {
		if _, err := NewEngine(cfg, 0); !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("case %d: NewEngine err = %v, want ErrBadConfig", i, err)
		}
	}
}

// TestEngineZeroAllocSteadyState: once rings and reassembly buffers
// are warm, the one-worker engine's plan/execute/commit loop allocates
// nothing, with one-slot and sixteen-slot epochs alike. (The sharded
// path is asserted by BenchmarkRouterParallel's ReportAllocs.)
func TestEngineZeroAllocSteadyState(t *testing.T) {
	for _, epoch := range []int{1, 16} {
		t.Run(fmt.Sprintf("epoch=%d", epoch), func(t *testing.T) {
			e, err := NewEngine(Config{
				Ports: 4, Classes: 2,
				Buffer:     core.Config{B: 8, Bsmall: 2, Banks: 64},
				EpochSlots: epoch,
			}, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Deterministic sub-saturation workload (one 6-cell packet
			// per 5 slots, destinations round-robin) so every ring and
			// buffer occupancy plateaus during warmup.
			payload := make([]byte, 300)
			out := make([]Egress, 0, 256)
			slot := 0
			drive := func(slots int) {
				for s := 0; s < slots; s, slot = s+5, slot+5 {
					k := slot / 5
					_ = e.Offer(k%4, packet.Packet{
						Flow:    e.VOQ((k/4)%4, k%2),
						Payload: payload,
					})
					var err error
					out, err = e.StepBatch(5, out[:0])
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			drive(8000) // warm every ring, arena and reassembly buffer
			if allocs := testing.AllocsPerRun(10, func() { drive(100) }); allocs != 0 {
				t.Errorf("steady-state engine slots allocated %.2f per 100-slot run", allocs)
			}
			es := e.EpochStats()
			if es.Epochs == 0 {
				t.Fatal("epoch path never ran")
			}
			if es.Divergences != 0 {
				t.Errorf("epoch execution diverged %d times", es.Divergences)
			}
		})
	}
}

// TestEngineFastForwardMatchesSerial pins the fast-forward with
// one-slot epochs: a StepBatch whose traffic drains mid-batch must
// skip the quiescent tail and still be bit-identical to the serial
// oracle stepping every slot — same egress, same router stats, same
// per-port buffer stats (skipped-slot counters aside) — and it must
// actually have skipped. The batch side runs both in place and fully
// sharded, so the race detector sees the coordinator's fastForward
// interleaved with live port workers.
func TestEngineFastForwardMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testEngineFastForward(t, workers, 1)
		})
	}
}

// TestEpochFastForwardMatchesSerial is the epoch-boundary
// Quiescent/StepBatch interaction: with EpochSlots > 1 quiescence is
// probed between epochs, the drain lands mid-epoch (the planner ticks
// the idle tail of its window), and the quiescent remainder of each
// batch must still fast-forward — bit-identical to per-slot stepping
// apart from the fast-forward counter, and it must actually skip.
func TestEpochFastForwardMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testEngineFastForward(t, workers, 16)
		})
	}
}

func testEngineFastForward(t *testing.T, batchWorkers, epochSlots int) {
	const ports, classes, slots = 4, 2, 20000
	bufCfg := core.Config{B: 8, Bsmall: 2, Banks: 16}
	cfg := Config{Ports: ports, Classes: classes, Buffer: bufCfg, SchedulerIterations: 2}
	serialEng, err := newSerialRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.EpochSlots = epochSlots
	batchEng, err := NewEngine(cfg, batchWorkers)
	if err != nil {
		t.Fatal(err)
	}
	defer batchEng.Close()
	rng := rand.New(rand.NewSource(9))
	offerBoth := func() {
		in, out, class := rng.Intn(ports), rng.Intn(ports), rng.Intn(classes)
		payload := make([]byte, 1+rng.Intn(3*packet.CellPayload))
		rng.Read(payload)
		for _, e := range []*Engine{serialEng.Engine, batchEng} {
			if err := e.Offer(in, packet.Packet{Flow: e.VOQ(out, class), Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Several bursts with long quiescent tails between them.
	var serialOut, batchOut []slotRecord
	record := func(eg []Egress, dst *[]slotRecord) {
		for _, e := range eg {
			*dst = append(*dst, slotRecord{
				output: e.Output, input: e.Input, flow: int(e.Packet.Flow),
				payload: append([]byte(nil), e.Packet.Payload...),
			})
		}
	}
	for burst := 0; burst < 4; burst++ {
		for k := 0; k < 12; k++ {
			offerBoth()
		}
		for s := 0; s < slots/4; s++ {
			eg, err := serialEng.Step()
			if err != nil {
				t.Fatal(err)
			}
			record(eg, &serialOut)
		}
		eg, err := batchEng.StepBatch(slots/4, nil)
		if err != nil {
			t.Fatal(err)
		}
		record(eg, &batchOut)
	}
	if len(serialOut) != len(batchOut) {
		t.Fatalf("egress diverges: serial %d packets, batch %d", len(serialOut), len(batchOut))
	}
	for k := range serialOut {
		a, b := serialOut[k], batchOut[k]
		if a.output != b.output || a.input != b.input || a.flow != b.flow || !bytes.Equal(a.payload, b.payload) {
			t.Fatalf("egress %d diverges: %+v vs %+v", k, a, b)
		}
	}
	if serialEng.Stats() != batchEng.Stats() {
		t.Errorf("router stats diverge:\nserial %+v\nbatch  %+v", serialEng.Stats(), batchEng.Stats())
	}
	skipped := uint64(0)
	for p := 0; p < ports; p++ {
		ss, bs := serialEng.BufferStats(p), batchEng.BufferStats(p)
		skipped += bs.FastForwardedSlots
		ss.FastForwardedSlots, bs.FastForwardedSlots = 0, 0
		if ss != bs {
			t.Errorf("port %d buffer stats diverge:\nserial %+v\nbatch  %+v", p, ss, bs)
		}
		if !bs.Clean() {
			t.Errorf("port %d not clean: %+v", p, bs)
		}
	}
	if skipped == 0 {
		t.Error("batch engine never fast-forwarded: the differential exercised nothing")
	}
	if !batchEng.Quiescent() || !serialEng.Quiescent() {
		t.Error("engines not quiescent after drain")
	}
	if es := batchEng.EpochStats(); es.Divergences != 0 {
		t.Errorf("epoch execution diverged %d times; predictions must be exact", es.Divergences)
	}
}
