package mma

import (
	"testing"

	"repro/internal/cell"
)

// BenchmarkLookaheadShift measures the shift-register datapath cost.
func BenchmarkLookaheadShift(b *testing.B) {
	b.ReportAllocs()
	l, _ := NewLookahead(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Shift(cell.PhysQueueID(i & 511))
	}
}

// setupECQF primes an ECQF at the paper's OC-3072 scale: Q=512
// queues, a full pipeline of Q(b−1)+1+Λ ≈ 4.6k entries (b=4), half
// the queues covered — a realistic mix of critical and covered. The
// selection is the operation the hardware performs every b slots.
func setupECQF() *ECQF {
	const pipe = 4573
	look, _ := NewLookahead(pipe)
	e, _ := NewECQF(look, 4, 512)
	for i := 0; i < pipe; i++ {
		look.Shift(cell.PhysQueueID(i % 512))
	}
	for q := cell.PhysQueueID(0); q < 512; q += 2 {
		e.OnReplenish(q)
		e.OnReplenish(q)
		e.OnReplenish(q)
	}
	return e
}

// BenchmarkECQFSelect measures one indexed ECQF selection (a
// find-first-set over the critical-slot bitmap).
func BenchmarkECQFSelect(b *testing.B) {
	b.ReportAllocs()
	e := setupECQF()
	eligible := func(cell.PhysQueueID) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Select(eligible); !ok {
			b.Fatal("nothing critical")
		}
	}
}

// BenchmarkECQFSelectScan measures the reference scan (scan_test.go) over
// the same state — the cost the index removes from the hot path.
func BenchmarkECQFSelectScan(b *testing.B) {
	b.ReportAllocs()
	e := setupECQF()
	eligible := func(cell.PhysQueueID) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.SelectScan(eligible); !ok {
			b.Fatal("nothing critical")
		}
	}
}

func setupMDQF() *MDQF {
	m, _ := NewMDQF(4, 512)
	for q := cell.PhysQueueID(0); q < 512; q++ {
		m.OnRequestEnter(q)
	}
	return m
}

// BenchmarkMDQFSelect measures one indexed MDQF selection (deficit
// bucket probes).
func BenchmarkMDQFSelect(b *testing.B) {
	b.ReportAllocs()
	m := setupMDQF()
	eligible := func(cell.PhysQueueID) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Select(eligible); !ok {
			b.Fatal("nothing in deficit")
		}
	}
}

// BenchmarkMDQFSelectScan measures the lookahead-free baseline's
// reference scan (scan_test.go) over the dense name space.
func BenchmarkMDQFSelectScan(b *testing.B) {
	b.ReportAllocs()
	m := setupMDQF()
	eligible := func(cell.PhysQueueID) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.SelectScan(eligible); !ok {
			b.Fatal("nothing in deficit")
		}
	}
}
