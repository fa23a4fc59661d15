package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cell"
)

// cfgName labels a differential configuration in subtest names.
func cfgName(cfg Config) string {
	name := fmt.Sprintf("%s/b=%d/cap=%d/ren=%v", cfg.MMA, cfg.Bsmall, cfg.BankCapacityBlocks, cfg.Renaming)
	if cfg.Org == OrgLinkedList {
		name += "/list"
	}
	return name
}

// kernelConfigs is the matrix the slot datapath is pinned over against
// the oracle: ECQF/MDQF × b × bounded/unbounded DRAM × renaming ×
// CAM/linked-list head SRAM.
func kernelConfigs() []Config {
	var cfgs []Config
	for _, org := range []SRAMOrg{OrgCAM, OrgLinkedList} {
		for _, m := range []MMAKind{ECQF, MDQF} {
			for _, bs := range []int{1, 2, 4, 8} {
				for _, bankCap := range []int{0, 64} {
					for _, ren := range []bool{false, true} {
						cfgs = append(cfgs, Config{
							Q: 8, B: 8, Bsmall: bs, Banks: 16, MMA: m,
							BankCapacityBlocks: bankCap, Renaming: ren, Org: org,
						})
					}
				}
			}
		}
	}
	return cfgs
}

// outcomeOf copies a slot's delivery out of the buffer-owned scratch.
func outcomeOf(out TickOutput) slotOutcome {
	if out.Delivered == nil {
		return slotOutcome{}
	}
	return slotOutcome{ok: true, bypassed: out.Bypassed, cell: *out.Delivered}
}

// denseStimulus drives the reference slot-by-slot with a seeded
// full-load workload (an arrival almost every slot, a round-robin
// drain against the live view) and records every TickInput plus the
// delivery outcome. Unlike phasedStimulus it emits no fully idle slot,
// so a TickBatch replay runs maximal busy spans with no fast-forward
// interference.
func denseStimulus(t *testing.T, ref oracle, rng *rand.Rand, slots int) ([]TickInput, []slotOutcome) {
	t.Helper()
	ins := make([]TickInput, 0, slots)
	outs := make([]slotOutcome, 0, slots)
	queues := ref.Config().Q
	rrNext := 0
	for len(ins) < slots {
		in := TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue}
		if rng.Float64() < 0.9 {
			in.Arrival = cell.QueueID(rng.Intn(queues))
		}
		if rng.Float64() < 0.85 {
			for i := 0; i < queues; i++ {
				q := cell.QueueID((rrNext + i) % queues)
				if ref.Requestable(q) > 0 {
					in.Request = q
					rrNext = (int(q) + 1) % queues
					break
				}
			}
		}
		if in.Arrival == cell.NoQueue && in.Request == cell.NoQueue {
			// Keep the stimulus dense: an all-idle slot would open a
			// fast-forward window and this suite pins the datapath alone.
			in.Arrival = cell.QueueID(rng.Intn(queues))
		}
		out, err := ref.Tick(in)
		if err != nil {
			t.Fatalf("reference tick slot %d: %v", len(ins), err)
		}
		ins = append(ins, in)
		outs = append(outs, outcomeOf(out))
	}
	return ins, outs
}

// perSlot is the replay length that drives the buffer through Tick one
// slot at a time instead of TickBatch.
const perSlot = 0

// replayLens are the replay modes of the differential suites: Tick one
// slot at a time, and TickBatch at lengths that do and do not divide
// the b-slot MMA cycle or the completion ring.
var replayLens = []int{perSlot, 1, 7, 256, 20000}

// modeName labels a replay length in failure messages.
func modeName(batchLen int) string {
	if batchLen == perSlot {
		return "Tick"
	}
	return fmt.Sprintf("TickBatch(len %d)", batchLen)
}

// replay replays ins through buf — Tick per slot for perSlot, TickBatch
// in chunks of batchLen otherwise — and asserts outcome-for-outcome
// equality with want.
func replay(t *testing.T, buf *Buffer, ins []TickInput, want []slotOutcome, batchLen int) {
	t.Helper()
	if batchLen == perSlot {
		for i, in := range ins {
			out, err := buf.Tick(in)
			if err != nil {
				t.Fatalf("Tick at slot %d: %v", i, err)
			}
			if g := outcomeOf(out); g != want[i] {
				t.Fatalf("slot %d: Tick %+v, reference %+v", i, g, want[i])
			}
		}
		return
	}
	out := make([]TickOutput, batchLen)
	pos := 0
	for pos < len(ins) {
		n := batchLen
		if left := len(ins) - pos; left < n {
			n = left
		}
		m, err := buf.TickBatch(ins[pos:pos+n], out[:n])
		if err != nil {
			t.Fatalf("batch at slot %d: %v", pos+m-1, err)
		}
		for i := 0; i < m; i++ {
			if g := outcomeOf(out[i]); g != want[pos+i] {
				t.Fatalf("slot %d: batch %+v, reference %+v", pos+i, g, want[pos+i])
			}
		}
		pos += m
	}
}

// TestKernelDifferential pins the slot datapath on dense spans:
// replaying a recorded full-load workload through Tick and through
// TickBatch must be bit-identical to the oracle — same deliveries in
// the same slots, same final statistics, same clock — across
// kernelConfigs and every replay mode.
func TestKernelDifferential(t *testing.T) {
	for ci, cfg := range kernelConfigs() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			ref := newOracle(t, cfg)
			rng := rand.New(rand.NewSource(int64(94017 + ci)))
			ins, want := denseStimulus(t, ref, rng, 20000)

			for _, batchLen := range replayLens {
				buf, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				replay(t, buf, ins, want, batchLen)
				if got, wantS := buf.Stats(), ref.Stats(); got != wantS {
					t.Errorf("%s: stats diverge:\ngot %+v\nref %+v", modeName(batchLen), got, wantS)
				}
				if buf.Now() != ref.Now() {
					t.Errorf("%s: clock diverges: got %d, ref %d", modeName(batchLen), buf.Now(), ref.Now())
				}
			}
		})
	}
}

// TestKernelErrorParity pins the error semantics against the oracle:
// a failing slot mid-stream must surface the same error (sentinel and
// message) after the same number of slots in every replay mode, the
// offending slot must still complete, and the buffers must remain
// bit-identical afterwards. Each case exercises one error source or
// the precedence between two errors in one slot.
func TestKernelErrorParity(t *testing.T) {
	base := Config{Q: 8, B: 8, Bsmall: 4, Banks: 16}
	fill := func(n int) []TickInput {
		ins := make([]TickInput, n)
		for i := range ins {
			ins[i] = TickInput{Arrival: cell.QueueID(i % base.Q), Request: cell.NoQueue}
		}
		return ins
	}
	tinyTail := base
	tinyTail.TailSRAMCells = 6
	tinyTailBounded := tinyTail
	tinyTailBounded.BankCapacityBlocks = 64
	cases := []struct {
		name string
		cfg  Config
		ins  []TickInput
		want error
	}{
		{
			name: "bad-request",
			cfg:  base,
			ins:  []TickInput{{Arrival: 0, Request: cell.NoQueue}, {Arrival: 1, Request: cell.NoQueue}, {Arrival: 2, Request: 7}, {Arrival: 3, Request: cell.NoQueue}},
			want: ErrBadRequest,
		},
		{
			name: "unknown-queue",
			cfg:  base,
			ins:  []TickInput{{Arrival: 0, Request: cell.NoQueue}, {Arrival: 8, Request: cell.NoQueue}, {Arrival: 1, Request: 0}},
			want: ErrUnknownQueue,
		},
		{
			// Arrival errors take precedence over request errors of the
			// same slot; both are still counted.
			name: "arrival-before-request",
			cfg:  base,
			ins:  []TickInput{{Arrival: 0, Request: cell.NoQueue}, {Arrival: 9, Request: 5}, {Arrival: 1, Request: 0}},
			want: ErrUnknownQueue,
		},
		{
			name: "tail-overflow",
			cfg:  tinyTail,
			ins:  fill(7),
			want: ErrTailOverflow,
		},
		{
			// With a bounded DRAM the same overflow is backpressure, and
			// it still precedes the request error of the same slot.
			name: "buffer-full-before-request",
			cfg:  tinyTailBounded,
			ins:  append(fill(6), TickInput{Arrival: 6, Request: 7}),
			want: ErrBufferFull,
		},
	}
	// Every case has a cell of queue 0 resident when it fails; request
	// it and idle until it is delivered.
	rest := []TickInput{{Arrival: cell.NoQueue, Request: 0}}
	for i := 0; i < 200; i++ {
		rest = append(rest, TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := newOracle(t, tc.cfg)
			var refErr error
			refSlots := 0
			for _, in := range tc.ins {
				refSlots++
				if _, refErr = ref.Tick(in); refErr != nil {
					break
				}
			}
			if !errors.Is(refErr, tc.want) {
				t.Fatalf("reference error %v, want %v", refErr, tc.want)
			}
			for _, in := range rest {
				if _, err := ref.Tick(in); err != nil {
					t.Fatalf("reference resume: %v", err)
				}
			}

			for _, batchLen := range replayLens {
				buf, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				mode := modeName(batchLen)
				var n int
				if batchLen == perSlot {
					for _, in := range tc.ins {
						n++
						if _, err = buf.Tick(in); err != nil {
							break
						}
					}
				} else {
					out := make([]TickOutput, len(tc.ins))
					n, err = buf.TickBatch(tc.ins, out)
				}
				if n != refSlots || err == nil || err.Error() != refErr.Error() {
					t.Fatalf("%s: stopped after %d slots (err %v); reference after %d (err %v)",
						mode, n, err, refSlots, refErr)
				}
				for _, in := range rest {
					if _, err := buf.Tick(in); err != nil {
						t.Fatalf("%s: resume: %v", mode, err)
					}
				}
				if got, want := buf.Stats(), ref.Stats(); got != want {
					t.Errorf("%s: stats diverge after resume:\ngot %+v\nref %+v", mode, got, want)
				}
				if buf.Now() != ref.Now() {
					t.Errorf("%s: clock diverges: got %d, ref %d", mode, buf.Now(), ref.Now())
				}
			}
		})
	}
}

// TestTickBatchBoundaries pins the TickBatch edge cases the span
// dispatch must preserve: zero-length and single-slot batches, a batch
// straddling a quiescent→busy transition (the idle prefix
// fast-forwards, the busy suffix runs the slot datapath), and batches
// whose spans end mid-renaming — all bit-identical to the oracle.
func TestTickBatchBoundaries(t *testing.T) {
	t.Run("zero-length", func(t *testing.T) {
		buf, err := New(Config{Q: 4, B: 8, Bsmall: 4, Banks: 16})
		if err != nil {
			t.Fatal(err)
		}
		n, err := buf.TickBatch(nil, nil)
		if n != 0 || err != nil {
			t.Fatalf("TickBatch(nil) = %d, %v", n, err)
		}
		if buf.Now() != 0 {
			t.Fatalf("zero-length batch moved the clock to %d", buf.Now())
		}
	})

	t.Run("length-1", func(t *testing.T) {
		cfg := Config{Q: 4, B: 8, Bsmall: 2, Banks: 16}
		ref := newOracle(t, cfg)
		buf, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]TickOutput, 1)
		for i := 0; i < 4*cfg.Q*cfg.Bsmall; i++ {
			in := TickInput{Arrival: cell.QueueID(i % cfg.Q), Request: cell.NoQueue}
			if i%2 == 1 {
				in.Request = cell.QueueID((i / 2) % cfg.Q)
			}
			wantOut, wantErr := ref.Tick(in)
			n, gotErr := buf.TickBatch([]TickInput{in}, out)
			if n != 1 || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("slot %d: batch n=%d err=%v, reference err=%v", i, n, gotErr, wantErr)
			}
			if g, w := outcomeOf(out[0]), outcomeOf(wantOut); g != w {
				t.Fatalf("slot %d: batch %+v, reference %+v", i, g, w)
			}
		}
		if got, want := buf.Stats(), ref.Stats(); got != want {
			t.Errorf("stats diverge:\nbatch %+v\nref   %+v", got, want)
		}
	})

	t.Run("quiescent-to-busy-straddle", func(t *testing.T) {
		cfg := Config{Q: 4, B: 8, Bsmall: 4, Banks: 16, Lookahead: 2, LatencySlots: 2}
		ref := newOracle(t, cfg)
		buf, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One batch: idle span long past quiescence, then a busy tail.
		var ins []TickInput
		for i := 0; i < 64; i++ {
			ins = append(ins, TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue})
		}
		for i := 0; i < 40; i++ {
			in := TickInput{Arrival: cell.QueueID(i % cfg.Q), Request: cell.NoQueue}
			if i >= 8 {
				in.Request = cell.QueueID((i - 8) % cfg.Q)
			}
			ins = append(ins, in)
		}
		want := make([]slotOutcome, len(ins))
		for i, in := range ins {
			out, err := ref.Tick(in)
			if err != nil {
				t.Fatalf("reference slot %d: %v", i, err)
			}
			want[i] = outcomeOf(out)
		}
		replay(t, buf, ins, want, len(ins))
		if buf.Stats().FastForwardedSlots == 0 {
			t.Error("straddling batch never fast-forwarded its idle prefix")
		}
		if got, wantS := normalizeFF(buf.Stats()), normalizeFF(ref.Stats()); got != wantS {
			t.Errorf("stats diverge:\nbatch %+v\nref   %+v", got, wantS)
		}
		if buf.Now() != ref.Now() {
			t.Errorf("clock diverges: batch %d, ref %d", buf.Now(), ref.Now())
		}
	})

	t.Run("batch-ends-mid-renaming", func(t *testing.T) {
		// Renaming config under sustained load; batch boundaries are
		// deliberately coprime to the b-slot cycle so batches end with
		// renamed blocks and replenishments in flight.
		cfg := Config{Q: 8, B: 8, Bsmall: 4, Banks: 16, Renaming: true, BankCapacityBlocks: 64}
		ref := newOracle(t, cfg)
		rng := rand.New(rand.NewSource(424242))
		ins, want := denseStimulus(t, ref, rng, 5000)
		for _, batchLen := range []int{3, 5, 7, 11, 13} {
			buf, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			replay(t, buf, ins, want, batchLen)
			if got, wantS := buf.Stats(), ref.Stats(); got != wantS {
				t.Errorf("batchLen %d: stats diverge:\nbatch %+v\nref   %+v", batchLen, got, wantS)
			}
		}
	})
}
