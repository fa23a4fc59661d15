package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/serve/wire"
)

// ledgerFixture is a client with queues 10, 11 and 12 (flows 0, 1, 2).
func ledgerFixture(t *testing.T) *ledger {
	t.Helper()
	l, err := newLedger(time.Now(), []pktbuf.Queue{10, 11, 12}, 16)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// submit records a burst whose cells are due at dueBase, dueBase+1, …
func submit(l *ledger, sent int64, dueBase int64, flows ...uint16) {
	due := make([]int64, len(flows))
	for i := range due {
		due[i] = dueBase + int64(i)
	}
	l.submitted(flows, due, sent)
}

// deliver feeds deliveries for the given flows in order, numbering
// each queue's cells as the client does.
func deliver(l *ledger, seq map[uint16]uint64, flows ...uint16) {
	for _, f := range flows {
		l.onDeliver(pktbuf.Cell{Queue: l.flows[f], Seq: seq[f]})
		seq[f]++
	}
}

// receivedFrom counts the ledger's own deliveries per queue, standing
// in for Client.Received.
func receivedFrom(l *ledger) func(pktbuf.Queue) uint64 {
	return func(q pktbuf.Queue) uint64 {
		n := uint64(0)
		for _, f := range l.delFlow {
			if l.flows[f] == q {
				n++
			}
		}
		return n
	}
}

func dues(r resolution) []int64 {
	var out []int64
	for _, s := range r.samples {
		out = append(out, s.due)
	}
	return out
}

// delivered returns the due times of the samples that were delivered.
func delivered(r resolution) []int64 {
	var out []int64
	for _, s := range r.samples {
		if s.lat != refusedLat {
			out = append(out, s.due)
		}
	}
	return out
}

func TestLedgerPairsPerQueueInOrder(t *testing.T) {
	l := ledgerFixture(t)
	submit(l, 1, 100, 0, 1, 0)
	submit(l, 2, 200, 1, 2)
	seq := map[uint16]uint64{}
	deliver(l, seq, 1, 0, 2, 0, 1)
	r, err := l.resolve(nil, receivedFrom(l))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{100, 101, 102, 200, 201}; !reflect.DeepEqual(dues(r), want) {
		t.Fatalf("paired dues %v, want %v", dues(r), want)
	}
	if r.dropped != 0 || r.submitted != 5 || r.received != 5 {
		t.Fatalf("resolution %+v", r)
	}
}

// A reject in the middle must remove exactly the refused cells: a
// per-queue FIFO that ignored it would pair queue 0's later delivery
// with the refused cell's due time.
func TestLedgerAppliesRejectBeforePairing(t *testing.T) {
	l := ledgerFixture(t)
	submit(l, 1, 100, 0, 1)
	submit(l, 2, 200, 1, 0) // refused after its first cell
	l.sawRejects(1, 1, 3)
	submit(l, 4, 300, 0)
	seq := map[uint16]uint64{}
	deliver(l, seq, 0, 1, 1, 0)
	rej := []wire.Reject{{Code: wire.CodeIngressFull, Accepted: 1, Dropped: 1}}
	r, err := l.resolve(rej, receivedFrom(l))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{100, 101, 200, 201, 300}; !reflect.DeepEqual(dues(r), want) {
		t.Fatalf("sample dues %v, want %v", dues(r), want)
	}
	if r.dropped != 1 || r.samples[3].lat != refusedLat {
		t.Fatalf("dropped %d, refused sample %+v; want 1 refused cell due at 201", r.dropped, r.samples[3])
	}
	for i, s := range r.samples {
		if i != 3 && s.lat == refusedLat {
			t.Fatalf("sample %d (due %d) marked refused", i, s.due)
		}
	}
}

// Two bursts of the reject's size were sent before it was seen; only
// the older one's refused suffix matches what the queues received.
func TestLedgerAttributesRejectByQueueCounts(t *testing.T) {
	l := ledgerFixture(t)
	submit(l, 1, 100, 0, 2) // refused entirely
	submit(l, 2, 200, 1, 1)
	l.sawRejects(1, 2, 5)
	seq := map[uint16]uint64{}
	deliver(l, seq, 1, 1)
	rej := []wire.Reject{{Code: wire.CodeIngressFull, Accepted: 0, Dropped: 2}}
	r, err := l.resolve(rej, receivedFrom(l))
	if err != nil {
		t.Fatal(err)
	}
	if got := delivered(r); !reflect.DeepEqual(got, []int64{200, 201}) {
		t.Fatalf("delivered dues %v, want [200 201]", got)
	}
}

// A reject cannot refer to a burst sent after it was seen.
func TestLedgerRejectBoundBySeenTime(t *testing.T) {
	l := ledgerFixture(t)
	submit(l, 1, 100, 0)
	l.sawRejects(1, 1, 2)
	submit(l, 3, 300, 0) // same size, sent after the reject was seen
	seq := map[uint16]uint64{}
	deliver(l, seq, 0)
	rej := []wire.Reject{{Code: wire.CodeIngressFull, Accepted: 0, Dropped: 1}}
	r, err := l.resolve(rej, receivedFrom(l))
	if err != nil {
		t.Fatal(err)
	}
	if got := delivered(r); !reflect.DeepEqual(got, []int64{300}) {
		t.Fatalf("delivered dues %v, want [300]", got)
	}
}

func TestLedgerDetectsLossAndDuplicates(t *testing.T) {
	l := ledgerFixture(t)
	submit(l, 1, 100, 0, 1)
	seq := map[uint16]uint64{}
	deliver(l, seq, 0)
	if _, err := l.resolve(nil, receivedFrom(l)); !errors.Is(err, errLedger) {
		t.Fatalf("lost cell: err = %v, want errLedger", err)
	}
	deliver(l, seq, 1, 1)
	if _, err := l.resolve(nil, receivedFrom(l)); !errors.Is(err, errLedger) {
		t.Fatalf("duplicate: err = %v, want errLedger", err)
	}
}

func TestLedgerDetectsClientCountMismatch(t *testing.T) {
	l := ledgerFixture(t)
	submit(l, 1, 100, 0)
	deliver(l, map[uint16]uint64{}, 0)
	none := func(pktbuf.Queue) uint64 { return 0 }
	if _, err := l.resolve(nil, none); !errors.Is(err, errLedger) {
		t.Fatalf("err = %v, want errLedger", err)
	}
}

func TestLedgerDetectsOutOfOrderSeq(t *testing.T) {
	l := ledgerFixture(t)
	submit(l, 1, 100, 0, 0)
	l.onDeliver(pktbuf.Cell{Queue: 10, Seq: 1})
	l.onDeliver(pktbuf.Cell{Queue: 10, Seq: 0})
	if _, err := l.resolve(nil, receivedFrom(l)); !errors.Is(err, errLedger) {
		t.Fatalf("err = %v, want errLedger", err)
	}
}

// The metric lists the program reports must be exactly those the
// repository's BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i,
					got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, b.EndToEnd)
	check("per_layer", layerMetrics, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.name, b.Workloads[i].Name)
		}
	}
}
