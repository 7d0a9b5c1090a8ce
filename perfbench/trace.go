package main

import (
	"context"
	"runtime/pprof"
	"time"
)

// tracer records a span around every public call the benchmark makes into
// the program, and runs the call under a pprof label naming the span, so
// a CPU profile of the run splits each span's time by package. Spans stay
// in memory until the run ends. A nil *tracer runs calls bare: the
// untraced run pays nothing for it.
type tracer struct {
	start time.Time
	ctx   context.Context
	spans []spanRecord
	open  []int // indexes of the enclosing spans, innermost last
}

// spanRecord is one finished span; times are from the start of the traced
// run, Parent is the index of the enclosing span or -1.
type spanRecord struct {
	Name    string        `json:"name"`
	Parent  int           `json:"parent"`
	StartNS time.Duration `json:"start_ns"`
	EndNS   time.Duration `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), ctx: context.Background()}
}

// span runs fn as a span named name, labelled span=<name>.
func (t *tracer) span(name string, fn func()) { t.labelled("span", name, fn) }

// phase runs fn as a span named name, labelled phase=<name>; the label
// stays on every span inside it.
func (t *tracer) phase(name string, fn func()) { t.labelled("phase", name, fn) }

func (t *tracer) labelled(key, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, spanRecord{Name: name, Parent: parent, StartNS: time.Since(t.start)})
	t.open = append(t.open, id)
	outer := t.ctx
	pprof.Do(outer, pprof.Labels(key, name), func(ctx context.Context) {
		t.ctx = ctx
		fn()
	})
	t.ctx = outer
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNS = time.Since(t.start)
}
