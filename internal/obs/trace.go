package obs

// SpanBuckets are the default duration buckets for span histograms,
// spanning 1ms to ~3h in decades (seconds).
var SpanBuckets = ExpBuckets(0.001, 10, 8)

// Tracer times named spans against an injected Clock. When constructed
// with a registry, every completed span lands in the
// obs_span_seconds{name=…} histogram. Safe for concurrent use; all
// methods no-op on a nil receiver.
type Tracer struct {
	clock Clock
	reg   *Registry
}

// NewTracer returns a tracer reading time from clock (nil means a clock
// pinned at 0) and publishing span durations to reg (nil disables
// publication).
func NewTracer(clock Clock, reg *Registry) *Tracer {
	if clock == nil {
		clock = (*SimClock)(nil)
	}
	return &Tracer{clock: clock, reg: reg}
}

// Start opens a span; close it with End. Nil tracers return nil spans,
// whose End is a no-op, so `defer tr.Start("x").End()` needs no guard.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, start: t.clock.Seconds()}
}

// Span is one in-flight timed region.
type Span struct {
	t     *Tracer
	name  string
	start float64
}

// End closes the span, observing its duration in the registry's span
// histogram when configured. Calling End on a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.reg.Histogram("obs_span_seconds", SpanBuckets, "name", s.name).Observe(s.t.clock.Seconds() - s.start)
}
