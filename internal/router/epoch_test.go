package router

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/packet"
)

func recordEgress(eg []Egress, dst *[]slotRecord) {
	for _, e := range eg {
		*dst = append(*dst, slotRecord{
			output: e.Output, input: e.Input, flow: int(e.Packet.Flow),
			payload: append([]byte(nil), e.Packet.Payload...),
		})
	}
}

// TestEpochMatchesSerial is the epoch engine's golden-equivalence
// sweep: for every speculation window K, port count, class count and
// worker striping, a seeded bursty workload stepped through
// epoch-batched StepBatch calls of adversarial lengths (misaligned
// with K, so epochs are truncated by batch boundaries) must be
// bit-identical to the serial oracle stepping slot by slot — egress
// stream, router stats and buffer stats (FastForwardedSlots aside)
// included.
func TestEpochMatchesSerial(t *testing.T) {
	bufCfg := core.Config{B: 8, Bsmall: 2, Banks: 16}
	for _, pc := range []struct{ ports, classes int }{{4, 1}, {4, 2}, {8, 2}} {
		for _, K := range []int{1, 2, 4, 16} {
			for _, workers := range []int{1, 0} {
				name := fmt.Sprintf("ports=%d/classes=%d/K=%d/workers=%d", pc.ports, pc.classes, K, workers)
				t.Run(name, func(t *testing.T) {
					testEpochEquivalence(t, pc.ports, pc.classes, K, workers, bufCfg, 4000, false)
				})
			}
		}
	}
}

// TestEpochRepairBoundaries drives the repair-boundary scenarios the
// predictor must survive: a tail SRAM tiny enough that arrivals
// reject under pressure (the admission horizon must end plans at the
// unguaranteed slot mid-batch, leaving the admit-or-retry decision to
// the buffer), ingress bursts landing between epochs, and VOQs
// draining dry inside a planned window. The differential bar is
// unchanged — bit-identical to the serial oracle — and the test
// additionally requires the horizon to have actually engaged.
func TestEpochRepairBoundaries(t *testing.T) {
	// BankCapacityBlocks bounds the banks so a full tail SRAM rejects
	// with ErrBufferFull (retry next slot) instead of erroring out.
	bufCfg := core.Config{B: 8, Bsmall: 2, Banks: 4, BankCapacityBlocks: 4, TailSRAMCells: 6}
	for _, pc := range []struct{ ports, classes int }{{4, 2}, {8, 2}} {
		for _, K := range []int{1, 2, 4, 16} {
			for _, workers := range []int{1, 0} {
				name := fmt.Sprintf("ports=%d/classes=%d/K=%d/workers=%d", pc.ports, pc.classes, K, workers)
				t.Run(name, func(t *testing.T) {
					testEpochEquivalence(t, pc.ports, pc.classes, K, workers, bufCfg, 4000, true)
				})
			}
		}
	}
}

func testEpochEquivalence(t *testing.T, ports, classes, K, workers int, bufCfg core.Config, slots int, wantHorizon bool) {
	t.Helper()
	serial, err := newSerialRouter(Config{Ports: ports, Classes: classes, Buffer: bufCfg, SchedulerIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{Ports: ports, Classes: classes, Buffer: bufCfg, SchedulerIterations: 2, EpochSlots: K}, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := eng.Config().EpochSlots; got != K {
		t.Fatalf("EpochSlots normalized to %d, want %d", got, K)
	}
	rng := rand.New(rand.NewSource(int64(1000*ports + 100*classes + K)))
	var sOut, eOut []slotRecord
	for done := 0; done < slots; {
		if rng.Intn(2) == 0 {
			// An ingress burst, landing mid-epoch relative to the
			// engine's batching.
			for b, n := 0, rng.Intn(3*ports); b < n; b++ {
				in, out, class := rng.Intn(ports), rng.Intn(ports), rng.Intn(classes)
				payload := make([]byte, rng.Intn(3*packet.CellPayload))
				rng.Read(payload)
				p := packet.Packet{Flow: serial.VOQ(out, class), Payload: payload}
				errA := serial.Offer(in, p)
				errB := eng.Offer(in, p)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("offer disagreement: serial %v, epoch %v", errA, errB)
				}
				if errA != nil && !errors.Is(errA, ErrIngressFull) {
					t.Fatal(errA)
				}
			}
		}
		// Batch lengths misaligned with K, so epochs are clipped by
		// batch boundaries as often as by the window.
		n := 1 + rng.Intn(2*K+3)
		if rem := slots - done; n > rem {
			n = rem
		}
		for s := 0; s < n; s++ {
			eg, err := serial.Step()
			if err != nil {
				t.Fatal(err)
			}
			recordEgress(eg, &sOut)
		}
		eg, err := eng.StepBatch(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		recordEgress(eg, &eOut)
		done += n
	}
	if len(sOut) != len(eOut) {
		t.Fatalf("egress diverges: serial %d packets, epoch %d", len(sOut), len(eOut))
	}
	for k := range sOut {
		a, b := sOut[k], eOut[k]
		if a.output != b.output || a.input != b.input || a.flow != b.flow || !bytes.Equal(a.payload, b.payload) {
			t.Fatalf("egress %d diverges: %+v vs %+v", k, a, b)
		}
	}
	if serial.Stats() != eng.Stats() {
		t.Errorf("router stats diverge:\nserial %+v\nepoch  %+v", serial.Stats(), eng.Stats())
	}
	for p := 0; p < ports; p++ {
		ss, es := serial.BufferStats(p), eng.BufferStats(p)
		ss.FastForwardedSlots, es.FastForwardedSlots = 0, 0
		if ss != es {
			t.Errorf("port %d buffer stats diverge:\nserial %+v\nepoch  %+v", p, ss, es)
		}
		// Under reject pressure both sides drop (identically, per the
		// stats equality above); Clean() only holds without it.
		if !wantHorizon && !es.Clean() {
			t.Errorf("port %d not clean: %+v", p, es)
		}
	}
	es := eng.EpochStats()
	if es.Divergences != 0 {
		t.Errorf("epoch execution diverged %d times; predictions must be exact in healthy states", es.Divergences)
	}
	if es.PlannedSlots != es.CommittedSlots {
		t.Errorf("planned %d slots but committed %d", es.PlannedSlots, es.CommittedSlots)
	}
	if es.Epochs == 0 {
		t.Error("epoch path never ran")
	}
	// Every slot is either committed from a plan or fast-forwarded:
	// nothing steps outside the planner.
	if got, want := es.CommittedSlots+eng.BufferStats(0).FastForwardedSlots, eng.Stats().Slots; got != want {
		t.Errorf("committed %d + fast-forwarded %d slots, but %d slots stepped",
			es.CommittedSlots, eng.BufferStats(0).FastForwardedSlots, want)
	}
	// A one-slot window has nothing to cut short; K=1 still runs the
	// reject-pressure differential.
	if wantHorizon && K > 1 && es.HorizonTruncations+es.SerialFallbackSlots == 0 {
		t.Error("admission horizon never engaged: the reject-pressure scenario exercised nothing")
	}
}

// TestEpochTruncationRepairs pins the repair path itself, which is
// unreachable through the public API in healthy states (the planner's
// predictions are exact): the plan's slot-2 request rows are
// corrupted in place so every port stops at the same boundary before
// ticking it. The coordinator must commit exactly the two validated
// slots, roll the grant/accept pointers and match counter back to the
// commit point, and leave the engine consistent — pinned by stepping
// both engines thousands of slots further in bit-identical lockstep.
func TestEpochTruncationRepairs(t *testing.T) {
	const ports, classes = 4, 2
	bufCfg := core.Config{B: 8, Bsmall: 2, Banks: 16}
	serial, err := newSerialRouter(Config{Ports: ports, Classes: classes, Buffer: bufCfg, SchedulerIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{Ports: ports, Classes: classes, Buffer: bufCfg, SchedulerIterations: 2, EpochSlots: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(7))
	offerBoth := func(n int) {
		for b := 0; b < n; b++ {
			in, out, class := rng.Intn(ports), rng.Intn(ports), rng.Intn(classes)
			payload := make([]byte, 1+rng.Intn(2*packet.CellPayload))
			rng.Read(payload)
			p := packet.Packet{Flow: serial.VOQ(out, class), Payload: payload}
			if err := serial.Offer(in, p); err != nil {
				t.Fatal(err)
			}
			if err := eng.Offer(in, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	stepBoth := func(slots int) {
		var sOut, eOut []slotRecord
		for s := 0; s < slots; s++ {
			eg, err := serial.Step()
			if err != nil {
				t.Fatal(err)
			}
			recordEgress(eg, &sOut)
		}
		eg, err := eng.StepBatch(slots, nil)
		if err != nil {
			t.Fatal(err)
		}
		recordEgress(eg, &eOut)
		if len(sOut) != len(eOut) {
			t.Fatalf("egress diverges: serial %d, epoch %d", len(sOut), len(eOut))
		}
		for k := range sOut {
			a, b := sOut[k], eOut[k]
			if a.output != b.output || a.input != b.input || a.flow != b.flow || !bytes.Equal(a.payload, b.payload) {
				t.Fatalf("egress %d diverges", k)
			}
		}
	}
	offerBoth(40)
	stepBoth(50)  // warm, already through the epoch path
	offerBoth(40) // a backlog, so the sabotaged tail schedules matches

	// White-box epoch round with a sabotaged plan: run the coordinator
	// stages by hand the way StepBatch does.
	eng.r.egArena = eng.r.egArena[:0]
	k, _ := eng.planEpoch(8)
	if k < 4 {
		t.Fatalf("planned only %d slots; need ≥ 4 to truncate at slot 2", k)
	}
	const divergeAt = 2
	if eng.Stats().Matches == eng.plan.matches[divergeAt-1] {
		t.Fatal("the truncated tail scheduled no match: the rollback would exercise nothing")
	}
	for i := 0; i < ports; i++ {
		row := eng.plan.reqVec[(divergeAt*ports+i)*ports : (divergeAt*ports+i)*ports+ports]
		for o := range row {
			row[o] = cell.QueueID(9999) // matches no live request vector
		}
	}
	eng.executeEpoch()
	out, commit, _, err := eng.commitEpoch(nil)
	if err != nil {
		t.Fatalf("repairable truncation returned error: %v", err)
	}
	if commit != divergeAt {
		t.Fatalf("committed %d slots, want %d", commit, divergeAt)
	}
	if eng.poisoned != nil {
		t.Fatalf("uniform truncation must not poison: %v", eng.poisoned)
	}
	if es := eng.EpochStats(); es.Divergences != 1 {
		t.Fatalf("Divergences = %d, want 1", es.Divergences)
	}
	var sOut, eOut []slotRecord
	recordEgress(out, &eOut)
	for s := 0; s < divergeAt; s++ {
		eg, err := serial.Step()
		if err != nil {
			t.Fatal(err)
		}
		recordEgress(eg, &sOut)
	}
	if len(sOut) != len(eOut) {
		t.Fatalf("truncated-epoch egress diverges: serial %d, epoch %d", len(sOut), len(eOut))
	}
	for k := range sOut {
		a, b := sOut[k], eOut[k]
		if a.output != b.output || a.input != b.input || a.flow != b.flow || !bytes.Equal(a.payload, b.payload) {
			t.Fatalf("truncated-epoch egress %d diverges", k)
		}
	}
	if serial.Stats() != eng.Stats() {
		t.Fatalf("stats diverge after rollback:\nserial %+v\nepoch  %+v", serial.Stats(), eng.Stats())
	}

	// The rolled-back engine must continue bit-identically: the
	// speculated tail's pointer movement really was revoked.
	for round := 0; round < 40; round++ {
		offerBoth(10)
		stepBoth(50)
	}
	if serial.Stats() != eng.Stats() {
		t.Errorf("stats diverge after repair:\nserial %+v\nepoch  %+v", serial.Stats(), eng.Stats())
	}
	for p := 0; p < ports; p++ {
		ss, es := serial.BufferStats(p), eng.BufferStats(p)
		ss.FastForwardedSlots, es.FastForwardedSlots = 0, 0
		if ss != es {
			t.Errorf("port %d buffer stats diverge after repair", p)
		}
	}
}

// TestEpochDivergencePoison: when one port's live state disagrees
// with the plan while other ports have already run past the boundary,
// the shards are torn — the engine must deliver the committed prefix,
// report ErrEpochDiverged, and refuse every subsequent call. Like
// TestEpochTruncationRepairs it sabotages the plan in place, but for
// one port only: port 2's slot-1 row no longer matches what its
// buffer derives, so it stops after slot 0 while the other ports
// execute their full plans.
func TestEpochDivergencePoison(t *testing.T) {
	const ports = 4
	eng, err := NewEngine(Config{Ports: ports, Classes: 1, Buffer: core.Config{B: 8, Bsmall: 2, Banks: 16}, EpochSlots: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	payload := bytes.Repeat([]byte{7}, packet.CellPayload)
	for p := 0; p < ports; p++ {
		for n := 0; n < 6; n++ {
			if err := eng.Offer(p, packet.Packet{Flow: eng.VOQ((p+1)%ports, 0), Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := eng.StepBatch(8, nil); err != nil {
		t.Fatal(err)
	}
	eng.r.egArena = eng.r.egArena[:0]
	k, _ := eng.planEpoch(8)
	if k < 2 {
		t.Fatalf("planned only %d slots; need ≥ 2 to tear at slot 1", k)
	}
	const divergeAt, torn = 1, 2
	row := eng.plan.reqVec[(divergeAt*ports+torn)*ports : (divergeAt*ports+torn)*ports+ports]
	for o := range row {
		row[o] = cell.QueueID(9999) // matches no derived request row
	}
	eng.executeEpoch()
	if _, commit, _, err := eng.commitEpoch(nil); !errors.Is(err, ErrEpochDiverged) || commit != divergeAt {
		t.Fatalf("torn epoch = commit %d, %v; want commit %d, ErrEpochDiverged", commit, err, divergeAt)
	}
	if _, err := eng.StepBatch(1, nil); !errors.Is(err, ErrEpochDiverged) {
		t.Errorf("StepBatch after poison = %v, want ErrEpochDiverged", err)
	}
	if err := eng.Offer(0, packet.Packet{Flow: 0, Payload: payload}); !errors.Is(err, ErrEpochDiverged) {
		t.Errorf("Offer after poison = %v, want ErrEpochDiverged", err)
	}
	if _, err := eng.OfferBatch(0, []packet.Packet{{Flow: 0, Payload: payload}}); !errors.Is(err, ErrEpochDiverged) {
		t.Errorf("OfferBatch after poison = %v, want ErrEpochDiverged", err)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("Close on poisoned engine: %v", err)
	}
}

// TestOfferBatchPartialAccept: the batched ingress path validates the
// whole run up front — the accepted prefix lands, the rejected tail
// does not, and a bad flow mid-run stops with ErrBadFlow. Mirrors
// Offer's per-packet semantics exactly.
func TestOfferBatchPartialAccept(t *testing.T) {
	mk := func() *Engine {
		e, err := NewEngine(Config{
			Ports: 2, Classes: 1,
			Buffer:     core.Config{B: 8, Bsmall: 2, Banks: 16},
			IngressCap: 5,
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	pkt := func(flow cell.QueueID, cells int) packet.Packet {
		return packet.Packet{Flow: flow, Payload: bytes.Repeat([]byte{1}, cells*packet.CellPayload)}
	}

	// Capacity stop: 2+2 cells fit the 5-cell budget, the third
	// 2-cell packet does not; nothing past the stop is offered.
	e := mk()
	n, err := e.OfferBatch(0, []packet.Packet{pkt(0, 2), pkt(1, 2), pkt(0, 2), pkt(1, 1)})
	if n != 2 || !errors.Is(err, ErrIngressFull) {
		t.Errorf("capacity stop = %d, %v; want 2, ErrIngressFull", n, err)
	}
	if got := e.IngressBacklog(0); got != 4 {
		t.Errorf("backlog = %d, want 4", got)
	}
	if got := e.Stats().OfferedPackets; got != 2 {
		t.Errorf("OfferedPackets = %d, want 2", got)
	}

	// Flow stop: an out-of-range flow mid-run rejects exactly there.
	e = mk()
	n, err = e.OfferBatch(0, []packet.Packet{pkt(1, 1), pkt(99, 1), pkt(0, 1)})
	if n != 1 || !errors.Is(err, ErrBadFlow) {
		t.Errorf("flow stop = %d, %v; want 1, ErrBadFlow", n, err)
	}
	if got := e.IngressBacklog(0); got != 1 {
		t.Errorf("backlog = %d, want 1", got)
	}

	// Whole batch fits: every packet lands, no error.
	e = mk()
	n, err = e.OfferBatch(1, []packet.Packet{pkt(0, 2), pkt(1, 2), pkt(0, 1)})
	if n != 3 || err != nil {
		t.Errorf("full accept = %d, %v; want 3, nil", n, err)
	}
	if got := e.IngressBacklog(1); got != 5 {
		t.Errorf("backlog = %d, want 5", got)
	}

	// The batched path must deliver the same cells the per-packet
	// path does: drain both and compare egress.
	a, b := mk(), mk()
	ps := []packet.Packet{pkt(0, 2), pkt(1, 1), pkt(0, 2)}
	if n, err := a.OfferBatch(0, ps); n != len(ps) || err != nil {
		t.Fatalf("OfferBatch = %d, %v", n, err)
	}
	for k := range ps {
		if err := b.Offer(0, ps[k]); err != nil {
			t.Fatal(err)
		}
	}
	ea, err := a.StepBatch(200, nil)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.StepBatch(200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ea) != len(eb) {
		t.Fatalf("egress %d vs %d", len(ea), len(eb))
	}
	for k := range ea {
		if ea[k].Output != eb[k].Output || ea[k].Input != eb[k].Input ||
			ea[k].Packet.Flow != eb[k].Packet.Flow ||
			!bytes.Equal(ea[k].Packet.Payload, eb[k].Packet.Payload) {
			t.Fatalf("egress %d diverged", k)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}
