package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Span names. Spans wrap the benchmark's own calls into a layer's
// public function; names prefixed "bench." are the benchmark's own
// code (generation, verification, ledgers).
const (
	spBenchWindow   = "bench.window"
	spBenchCycle    = "bench.cycle"
	spBenchBurst    = "bench.burst"
	spRunBatch      = "sim.RunBatch"
	spTickBatch     = "pktbuf.TickBatch"
	spSnapshot      = "pktbuf.Snapshot"
	spRestore       = "pktbuf.Restore"
	spOfferBatch    = "router.OfferBatch"
	spStepBatch     = "router.StepBatch"
	spSubmit        = "client.Submit"
	spCheckpoint    = "serve.Checkpoint"
	spRestoreServer = "serve.RestoreServer"
)

// maxStoredSpans bounds the spans kept for the output file; spans past
// it still count in the per-name aggregates.
const maxStoredSpans = 200000

// span is one recorded interval. Times are nanoseconds since the
// tracer's base. Parent is the index of the enclosing stored span, or
// -1 for a root or a parent past the storage bound.
type span struct {
	name       string
	req        int64
	start, end int64
	self       int64
	parent     int32
}

// spanAgg aggregates every span of one name.
type spanAgg struct {
	count     int64
	total     int64
	self      int64
	durations []int64
}

// tracer keeps spans in memory and writes them out at exit. A nil
// *tracer, or one switched off, records nothing; switching lets a
// traced run alternate untraced and traced windows.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	spans []span
	agg   map[string]*spanAgg
	order []string
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), agg: map[string]*spanAgg{}}
}

// setOn switches recording on or off.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// spanH is an open span. It lives on the caller's stack; children
// charge their duration to it, so self time is exact.
type spanH struct {
	name   string
	start  int64
	child  int64
	parent *spanH
	idx    int32
	live   bool
}

// begin opens a span named name under parent (nil for a root) with
// request id req, and stores it if the storage bound allows.
func (t *tracer) begin(name string, parent *spanH, req int64) spanH {
	if !t.active() {
		return spanH{}
	}
	h := spanH{name: name, parent: parent, idx: -1, live: true}
	pidx := int32(-1)
	if parent != nil && parent.live {
		pidx = parent.idx
	}
	t.mu.Lock()
	h.start = int64(time.Since(t.base))
	if len(t.spans) < maxStoredSpans {
		t.spans = append(t.spans, span{name: name, req: req, start: h.start, parent: pidx})
		h.idx = int32(len(t.spans) - 1)
	}
	t.mu.Unlock()
	return h
}

// end closes h and returns its duration (0 for a span opened while
// tracing was off).
func (t *tracer) end(h *spanH) time.Duration {
	if !h.live {
		return 0
	}
	h.live = false
	end := int64(time.Since(t.base))
	dur := end - h.start
	self := dur - h.child
	if h.parent != nil && h.parent.live {
		h.parent.child += dur
	}
	t.mu.Lock()
	a := t.agg[h.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[h.name] = a
		t.order = append(t.order, h.name)
	}
	a.count++
	a.total += dur
	a.self += self
	a.durations = append(a.durations, dur)
	if h.idx >= 0 {
		t.spans[h.idx].end = end
		t.spans[h.idx].self = self
	}
	t.mu.Unlock()
	return time.Duration(dur)
}

// total returns the summed duration of all spans named name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return time.Duration(a.total)
	}
	return 0
}

// durations returns the recorded durations of spans named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil {
		return nil
	}
	out := make([]float64, len(a.durations))
	for i, d := range a.durations {
		out[i] = float64(d)
	}
	return out
}

// report adds the per-name self-time summary to r and sets the
// tracing metrics.
func (t *tracer) report(r *result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var count, all, bench int64
	names := append([]string(nil), t.order...)
	sort.Strings(names)
	for _, n := range names {
		a := t.agg[n]
		count += a.count
		all += a.self
		if len(n) > 6 && n[:6] == "bench." {
			bench += a.self
		}
		r.note("span %-22s count=%-8d total_ms=%-12.3f self_ms=%.3f", n, a.count,
			float64(a.total)/1e6, float64(a.self)/1e6)
	}
	r.layer["trace.spans"] = float64(count)
	r.layer["trace.bench_self_share"] = ratio(float64(bench), float64(all))
}

// write stores the spans as tab-separated lines under dir and returns
// the file path.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\treq\tstart_ns\tend_ns\tself_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", i, s.parent, s.name, s.req, s.start, s.end, s.self)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
