// Package repro is a full reproduction of "Design and Implementation
// of High-Performance Memory Systems for Future Packet Buffers"
// (García, Corbal, Cerdà, Valero — MICRO-36, 2003).
//
// The public API is the repro/pktbuf tree: repro/pktbuf (the buffer:
// Tick/TickBatch, typed sentinel errors, sizing and the technology
// model), repro/pktbuf/packet (cell segmentation and reassembly),
// repro/pktbuf/router (the sharded Figure-1 router engine),
// repro/pktbuf/sim (the batched simulation driver and the workload
// generators) and repro/pktbuf/trace (slot-trace record and replay).
// The substrates (DRAM banking, shared SRAM organizations, MMAs, the
// DRAM Scheduler Subsystem, queue renaming, the CACTI-style
// technology model and the experiment generators) live under
// repro/internal and are implementation detail; examples and the
// pktbufsim harness consume only the public surface, and
// api_surface_test.go pins the exported API against a golden
// snapshot. See README.md for the map, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for the paper-versus-measured record.
// The benchmarks in bench_test.go regenerate every table and figure
// of the paper's evaluation.
//
// # Dense-arena hot path
//
// The simulator is slot-accurate: one core.Buffer.Tick per cell time.
// All per-queue state on that path — tail-SRAM deques, sequence
// cursors, occupancy ledgers, SRAM queue tables, DRAM reservation
// cursors and renaming registers — lives in dense slices indexed by
// the queue ordinal, sized from the configuration at construction
// (logical ids are [0, Q); physical ids are [0, P) because the §6
// renaming table hands out register-bounded ordinals). DRAM→SRAM
// completions are scheduled on a fixed slot ring, and block payload
// storage is pooled, so steady-state Tick performs no hashing and no
// allocation. BENCH_baseline.json records the gate: the BenchmarkTick*
// suite must stay ≥2× under the map-keyed seed at 0 allocs/op.
//
// # Bitmap selection indices
//
// Selection decisions are decoupled from the queue count: instead of
// scanning Q occupancy counters (TailMMA, MDQF) or re-walking the
// Q(b−1)+1-slot lookahead (ECQF) every b slots, the MMA layer keeps
// incrementally maintained hierarchical bitmaps (repro/internal/bitset
// — multi-level find-first-set indices in the O(1)-scheduler style):
// ECQF tracks the lookahead slot at which each queue turns critical,
// the tail and deficit selectors bucket queues by exact occupancy, and
// the DRAM publishes its per-queue "readable now" eligibility as a
// dense bitset the selectors consult instead of per-candidate
// callbacks. Selections are bit-identical to the linear-scan
// references (SelectScan, kept in the package's _test.go files), which
// seeded differential tests pin over 10⁵-slot random workloads; BenchmarkTickQueueScaling holds per-slot
// cost near-flat from Q=64 to Q=65536 (BENCH_baseline.json,
// bitmap_index_pr4).
//
// # Batched simulation driver
//
// sim.Runner.RunBatch(slots, batch) is the long-run fast path: it
// chunks the slot loop, hoists the arrival-generator interface
// dispatch out of the inner loop for sim.BatchArrivalProcess
// implementations, resolves the delivery-callback and drop-tolerance
// branches per batch, and snapshots statistics once per run.
// cmd/pktbufsim exposes it as -batch; Runner.Run is the batch-size-1
// special case. The same design is mirrored on the public surface:
// pktbuf.Buffer.TickBatch and pktbuf/sim.Runner.RunBatch drive the
// buffer through the façade at internal speed (BenchmarkPktbuf* in
// facade_bench_test.go holds them within ~1% of the internal suite at
// zero allocations per slot).
//
// # Event-driven idle time (sparse fast-forward)
//
// Idle time is O(1), not O(slots). Buffer.Quiescent reports that an
// idle tick would be a pure time advance — request pipeline and
// completion calendar empty, Requests Register empty, neither MMA
// with a transfer to order; note this is about in-flight work, not
// occupancy, so a buffer holding unrequested cells is quiescent.
// Buffer.FastForward(n) then advances the clock n slots in O(1),
// bit-identically to n idle Ticks: ring indices and the MMA cycle
// phase follow the clock analytically, and the elided DSA cycles are
// credited to the scheduler's empty-cycle count. The only trace a
// jump leaves is Stats.FastForwardedSlots, which dense ticking keeps
// at zero by definition — equivalence comparisons exclude it.
// TickBatch converts runs of fully idle inputs to FastForward (its
// outputs land in batch-local scratch: every out[i].Delivered of one
// batch is valid until the next Tick/TickBatch call, and the public
// façade's value-semantics Outputs are valid forever). The sim
// Runners skip idle spans entirely when the arrival process can jump
// to its next arrival (SparseArrivalProcess; NewBernoulliArrivals
// draws geometric gaps, one RNG call per arrival) and the request
// policy is idle-stable (StableRequestPolicy), making a load-ρ run
// cost O(ρ·slots); router.Engine.StepBatch fast-forwards all port
// shards in lockstep once every port is quiescent. Fast-forwarding
// engages only when idle gaps outlast the request pipeline
// (lookahead + latency register), so sparse deployments shorten it
// via the Lookahead/LatencySlots overrides. Seeded differential
// suites (internal/core/fastforward_test.go and the runner/router
// equivalents) pin jump ≡ tick bit-identically across ECQF/MDQF,
// b ∈ {1,2,4,8}, bounded and unbounded DRAM, and every cycle phase;
// BENCH_baseline.json (sparse_ff_pr5) records ≥14× per-slot cost
// reduction at ρ=0.01 against the dense reference at the same load.
//
// # Dense slot datapath
//
// Busy time is batched the way idle time is skipped. TickBatch splits
// its input into maximal busy spans (slots carrying an arrival or a
// request) and idle runs: idle runs fast-forward as above, and each
// busy span runs the buffer's one slot datapath
// (internal/core/buffer.go) — the same body Tick calls — with the
// completion-ring index and MMA cycle phase carried across the span
// instead of recomputed from the clock every slot. The substrate is
// resolved to concrete pointers once at construction (ECQF vs MDQF,
// CAM vs list SRAM, renaming vs identity), and the per-slot working
// set (sequence numbers, system occupancy, pending requests) lives in
// dense parallel arrays. The datapath also fuses ECQF's lookahead
// shift with the same slot's delivery (ecqf.ShiftDelivered): their two
// critical-slot recomputes cancel in the bitmap index, so one
// recompute — usually a no-op — replaces two Clear/Set pairs. The
// slot-at-a-time reference lives in internal/core/oracle_test.go;
// kernel_test.go pins both Tick and TickBatch bit-identical to it
// (statistics included, FastForwardedSlots excluded) across MMAs,
// granularities, DRAM bounds, renaming and SRAM organizations,
// including batch boundaries and error slots.
// BENCH_baseline.json (fused_kernel_pr6) records the dense gate —
// ~125–140 ns/slot at the Q=512 design point, 0 allocs/op — and
// cmd/benchcheck gates CI at +25% over the recorded rows.
//
// # Sharded router engine
//
// repro/pktbuf/router promotes the paper's system context (Figure 1)
// to the public surface as a concurrent engine: one VOQ buffer shard
// per input port, each advanced by a dedicated worker goroutine, with
// the iSLIP request-grant-accept exchange as the only per-slot
// synchronization barrier. Port ticks touch only port-local state
// (dense per-VOQ metadata deques, matching the core's arena
// discipline), the scheduler consumes only the request vectors the
// ports published after their previous ticks, and egress is collected
// in input-port order into a per-batch payload arena — so the sharded
// engine is deterministic, bit-identical to the serial Workers: 1
// path (pinned by golden-equivalence tests at both the internal and
// public layers), race-clean under go test -race, and 0 allocs/op at
// steady state. cmd/pktbufsim -router -ports N drives it from the
// CLI; BENCH_baseline.json's router_pr3 section records the scaling
// baselines.
//
// # Machine-checked contracts
//
// The invariants above are enforced by repo-specific static analysis
// (repro/internal/analysis, driven by cmd/pktbufvet standalone or via
// go vet -vettool). Three comment directives carry the contracts in
// the source itself: //pktbuf:hotpath on a function declaration
// asserts the allocation-free discipline (no map/channel traffic, no
// append, no closures, no interface boxing — and, via the escape
// gate over go build -gcflags=-m, no new heap escapes beyond the
// reviewed baseline in testdata/escapes_baseline.txt);
// //pktbuf:owner=<func> on a struct field asserts the single-writer
// discipline the serving loop and SPSC rings rely on, checked over
// the call graph with atomic Loads exempt; and //pktbuf:allow
// <analyzer> <reason> waives one finding on one line, reason
// mandatory. Two more analyzers need no annotations: errwrap pins the
// error-taxonomy rule (everything returned across the public
// repro/pktbuf API matches a typed sentinel under errors.Is) and
// publicapi pins the façade rule (examples and commands build on the
// public surface only). CI keeps the whole tree at zero findings; see
// README.md "Static analysis".
package repro
