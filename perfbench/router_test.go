package main

import (
	"hash/fnv"
	"testing"

	"repro/pktbuf/router"
)

// The router workload's traffic is a per-slot schedule: the lockstep
// serial engine and the epoch engine with two workers must see the
// same packets and produce the same egress and statistics.
func TestRouterTrafficIndependentOfEngineSettings(t *testing.T) {
	run := func(epoch, workers int) (uint64, router.Stats) {
		cfg := routerConfig()
		cfg.EpochSlots, cfg.Workers = epoch, workers
		d, err := newRTBench(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		defer d.eng.Close()
		h := fnv.New64a()
		var rec [4]byte
		for i := 0; i < 300; i++ {
			if err := d.cycle(nil, nil, 0, nil, nil); err != nil {
				t.Fatal(err)
			}
			for _, e := range d.out {
				rec = [4]byte{byte(e.Output), byte(e.Input), byte(e.Packet.Flow), byte(len(e.Packet.Payload))}
				h.Write(rec[:])
				h.Write(e.Packet.Payload)
			}
		}
		if d.check.bad > 0 {
			t.Fatalf("K=%d workers=%d: %s", epoch, workers, d.check.firstBad)
		}
		return h.Sum64(), d.eng.Stats()
	}
	h1, s1 := run(1, 1)
	h16, s16 := run(16, 2)
	if h1 != h16 || s1 != s16 {
		t.Fatalf("K=1 serial and K=16 two-worker runs differ: stats %+v vs %+v", s1, s16)
	}
	if s1.DeliveredPackets == 0 {
		t.Fatal("no packets delivered")
	}
}
