package obs

// Obs bundles the two halves of the observability layer. A nil *Obs is the
// disabled state; every accessor is nil-safe and returns disabled
// instruments, so instrumented packages thread a possibly nil *Obs and
// never branch on it themselves (except to skip Event construction, via
// Trace().Enabled()).
type Obs struct {
	// Metrics is the shared registry.
	Metrics *Registry
	// Tracer receives scheduling events; nil disables tracing while
	// keeping metrics.
	Tracer *Tracer
}

// New returns an Obs with a fresh registry and no tracer.
func New() *Obs {
	return &Obs{Metrics: NewRegistry()}
}

// NewTraced returns an Obs with a fresh registry and a tracer forwarding
// to sink (Discard and MemorySink are common choices) with a ring of
// DefaultRingSize recent events. Events that fall out of the ring
// increment the registry's trace.dropped_events_total counter, so a
// truncated ring is visible in every snapshot rather than silent.
func NewTraced(sink Sink) *Obs {
	o := &Obs{Metrics: NewRegistry(), Tracer: NewTracer(DefaultRingSize, sink)}
	o.Tracer.droppedCounter = o.Metrics.Counter("trace.dropped_events_total")
	return o
}

// Counter returns the named counter (disabled when o is nil).
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge (disabled when o is nil).
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram (disabled when o is nil).
func (o *Obs) Histogram(name string, bounds []float64) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, bounds)
}

// Phase returns the named phase timer. Always usable: with o nil the timer
// still accumulates an exact total, it is just not registered anywhere.
func (o *Obs) Phase(name string) *PhaseTimer {
	if o == nil {
		return NewPhaseTimer(nil)
	}
	return o.Metrics.Phase(name)
}

// Trace returns the tracer (nil — disabled — when o is nil).
func (o *Obs) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Snapshot freezes the registry (empty when o is nil).
func (o *Obs) Snapshot() Snapshot {
	if o == nil {
		return (*Registry)(nil).Snapshot()
	}
	return o.Metrics.Snapshot()
}
