package router

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

// BenchmarkRouterStep measures the per-slot cost of the whole router
// (segmentation + 4 buffers + iSLIP + reassembly) under ~full load,
// one-slot epochs on one worker.
func BenchmarkRouterStep(b *testing.B) {
	b.ReportAllocs()
	e, err := NewEngine(Config{
		Ports:   4,
		Classes: 2,
		Buffer:  core.Config{B: 32, Bsmall: 4, Banks: 256},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 300)
	var out []Egress
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			in := rng.Intn(4)
			p := packet.Packet{Flow: e.VOQ(rng.Intn(4), rng.Intn(2)), Payload: payload}
			_ = e.Offer(in, p)
		}
		if out, err = e.StepBatch(1, out[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := e.Stats()
	if st.Slots == 0 {
		b.Fatal("no slots")
	}
	b.ReportMetric(float64(st.SwitchedCells)/float64(st.Slots), "cells/slot")
}
