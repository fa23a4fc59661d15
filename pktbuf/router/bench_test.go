package router_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/packet"
	"repro/pktbuf/router"
)

func benchEngine(b *testing.B, ports, classes, workers, epoch int) *router.Engine {
	b.Helper()
	e, err := router.New(router.Config{
		Ports:      ports,
		Classes:    classes,
		Workers:    workers,
		EpochSlots: epoch,
		Buffer: pktbuf.Config{
			LineRate:    pktbuf.OC3072,
			Granularity: 4,
			Banks:       256,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// driveEngine measures the per-slot cost of the whole engine
// (segmentation + per-port buffers + iSLIP + reassembly) under ~75%
// offered load (one 6-cell packet per port per 8 slots, uniform
// destinations) — sub-saturation, so occupancies plateau and the
// steady state stays allocation-free.
func driveEngine(b *testing.B, e *router.Engine, ports, classes int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 300)
	out := make([]router.Egress, 0, 4*ports)
	offer := func(slot int) {
		if slot%8 == 0 {
			for port := 0; port < ports; port++ {
				p := packet.Packet{
					Flow:    e.VOQ(rng.Intn(ports), rng.Intn(classes)),
					Payload: payload,
				}
				_ = e.Offer(port, p) // ingress-full is fine under load
			}
		}
	}
	// Warm rings, arenas and reassembly buffers before measuring.
	for s := 0; s < 6000; s++ {
		offer(s)
		var err error
		out, err = e.StepBatch(1, out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer(i)
		var err error
		out, err = e.StepBatch(1, out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := e.Stats()
	if st.Slots == 0 {
		b.Fatal("no slots")
	}
	b.ReportMetric(float64(st.SwitchedCells)/float64(st.Slots), "cells/slot")
	// The parallel rows only demonstrate multi-core speedup when the
	// host actually has the cores; emit the count so recorded baselines
	// carry a machine-checkable single-CPU caveat instead of a prose
	// one (a `cpus` field in BENCH_baseline.json rows).
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// BenchmarkRouterStep is the one-worker engine: every port runs in
// place on the calling goroutine, one-slot epochs, across the port
// counts of the scaling table.
func BenchmarkRouterStep(b *testing.B) {
	for _, ports := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("ports=%d", ports), func(b *testing.B) {
			e := benchEngine(b, ports, 2, 1, 1)
			driveEngine(b, e, ports, 2)
		})
	}
}

// BenchmarkRouterParallel is the sharded engine: one worker goroutine
// per port, the iSLIP exchange as the only per-slot barrier. The
// ≥2×-over-serial gate applies at ports=8 on a multi-core host
// (GOMAXPROCS ≥ 8); on a single-CPU host the workers serialize and
// the barrier overhead is what this benchmark reports.
func BenchmarkRouterParallel(b *testing.B) {
	for _, ports := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("ports=%d", ports), func(b *testing.B) {
			e := benchEngine(b, ports, 2, 0, 1)
			driveEngine(b, e, ports, 2)
		})
	}
}

// BenchmarkRouterEpoch is the epoch-batched sharded engine at the
// gated configuration (ports=8, one worker per port): each op steps
// one K-slot window through StepBatch, so ns/op scales with K and the
// per-slot figures are reported as explicit metrics — ns_slot (the
// comparable cost) and sync_ops_slot (the coordinator↔worker channel
// operations the epoch amortizes: 2×workers at K=1, 2×workers/K for
// larger windows). K=1, one barrier per slot, is the reference.
func BenchmarkRouterEpoch(b *testing.B) {
	const ports, classes = 8, 2
	for _, K := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("ports=%d/K=%d", ports, K), func(b *testing.B) {
			e := benchEngine(b, ports, classes, 0, K)
			driveEngineEpoch(b, e, ports, classes, K)
		})
	}
}

// driveEngineEpoch is driveEngine's K-slot-window variant: identical
// offered load (one 6-cell packet per port per 8 slots), stepped
// through StepBatch(K) calls.
func driveEngineEpoch(b *testing.B, e *router.Engine, ports, classes, K int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 300)
	out := make([]router.Egress, 0, 4*ports)
	slot := 0
	step := func() {
		for s := slot; s < slot+K; s++ {
			if s%8 == 0 {
				for port := 0; port < ports; port++ {
					p := packet.Packet{
						Flow:    e.VOQ(rng.Intn(ports), rng.Intn(classes)),
						Payload: payload,
					}
					_ = e.Offer(port, p) // ingress-full is fine under load
				}
			}
		}
		var err error
		out, err = e.StepBatch(K, out[:0])
		if err != nil {
			b.Fatal(err)
		}
		slot += K
	}
	for slot < 6000 {
		step()
	}
	startSlots := e.Stats().Slots
	startSync := e.EpochStats().SyncOps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	st := e.Stats()
	slots := st.Slots - startSlots
	if slots == 0 {
		b.Fatal("no slots")
	}
	if es := e.EpochStats(); es.Divergences != 0 {
		b.Fatalf("epoch execution diverged %d times", es.Divergences)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns_slot")
	b.ReportMetric(float64(e.EpochStats().SyncOps-startSync)/float64(slots), "sync_ops_slot")
	b.ReportMetric(float64(st.SwitchedCells)/float64(st.Slots), "cells/slot")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}
