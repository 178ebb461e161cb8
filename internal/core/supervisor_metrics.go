package core

import (
	"odin/internal/telemetry"
)

// Supervisor metric families. Counters are exported as sampled gauges over
// the supervisor's own atomic counters (the same pattern the fault injector
// uses), so Stats() and the scrape endpoint can never disagree; only the
// two duration distributions are live histograms.
const (
	MetricSupQueueDepth     = "odin_supervisor_queue_depth"
	MetricSupQueueCapacity  = "odin_supervisor_queue_capacity"
	MetricSupRequests       = "odin_supervisor_requests"
	MetricSupRejectedFull   = "odin_supervisor_rejected_queue_full"
	MetricSupRejectedOpen   = "odin_supervisor_rejected_circuit_open"
	MetricSupGenerations    = "odin_supervisor_generations"
	MetricSupGenFailures    = "odin_supervisor_generation_failures"
	MetricSupBisectRebuilds = "odin_supervisor_bisect_rebuilds"
	MetricSupCoalesced      = "odin_supervisor_coalesced_requests"
	MetricSupBreakerState   = "odin_supervisor_breaker_state"
	MetricSupBreakerTrans   = "odin_supervisor_breaker_transitions"
	MetricSupQuarantined    = "odin_supervisor_quarantined_probes"
	MetricSupQueueAge       = "odin_supervisor_queue_age_seconds"
	MetricSupTicketDur      = "odin_supervisor_ticket_seconds"
)

// supervisorMetrics holds the supervisor's live telemetry handles. All
// fields are nil-safe: with telemetry off every call is a no-op.
type supervisorMetrics struct {
	queueAge  *telemetry.Histogram
	ticketDur *telemetry.Histogram
}

func newSupervisorMetrics(reg *telemetry.Registry, s *Supervisor) supervisorMetrics {
	reg.Describe(MetricSupQueueDepth, "Requests currently waiting in the supervisor admission queue.")
	reg.Describe(MetricSupQueueCapacity, "Configured bound of the supervisor admission queue.")
	reg.Describe(MetricSupRequests, "Total probe requests admitted by the supervisor.")
	reg.Describe(MetricSupRejectedFull, "Requests rejected with ErrQueueFull (backpressure).")
	reg.Describe(MetricSupRejectedOpen, "Requests rejected with ErrCircuitOpen (breaker fail-fast).")
	reg.Describe(MetricSupGenerations, "Rebuild generations the supervisor has run.")
	reg.Describe(MetricSupGenFailures, "Generations whose whole-batch rebuild failed and entered bisection.")
	reg.Describe(MetricSupBisectRebuilds, "Extra rebuilds spent isolating poison probes after a failed generation.")
	reg.Describe(MetricSupCoalesced, "Requests absorbed into generations; divided by generations this is the coalescing ratio.")
	reg.Describe(MetricSupBreakerState, "Circuit breaker state: 0 closed, 1 half-open, 2 open.")
	reg.Describe(MetricSupBreakerTrans, "Circuit breaker state transitions.")
	reg.Describe(MetricSupQuarantined, "Probes currently quarantined by poison bisection.")
	reg.Describe(MetricSupQueueAge, "Time requests spent queued before their generation started.")
	reg.Describe(MetricSupTicketDur, "End-to-end latency from admission to ticket resolution.")

	reg.GaugeFunc(MetricSupQueueDepth, func() int64 { return int64(s.queueLen()) })
	reg.GaugeFunc(MetricSupQueueCapacity, func() int64 { return int64(s.opts.QueueDepth) })
	reg.GaugeFunc(MetricSupRequests, func() int64 { return int64(s.nRequests.Load()) })
	reg.GaugeFunc(MetricSupRejectedFull, func() int64 { return int64(s.nRejectedFull.Load()) })
	reg.GaugeFunc(MetricSupRejectedOpen, func() int64 { return int64(s.nRejectedOpen.Load()) })
	reg.GaugeFunc(MetricSupGenerations, func() int64 { return int64(s.nGenerations.Load()) })
	reg.GaugeFunc(MetricSupGenFailures, func() int64 { return int64(s.nGenFailures.Load()) })
	reg.GaugeFunc(MetricSupBisectRebuilds, func() int64 { return int64(s.nBisectRebuilds.Load()) })
	reg.GaugeFunc(MetricSupCoalesced, func() int64 { return int64(s.nCoalesced.Load()) })
	reg.GaugeFunc(MetricSupBreakerState, func() int64 { return int64(s.Breaker()) })
	reg.GaugeFunc(MetricSupBreakerTrans, func() int64 { return int64(s.nTransitions.Load()) })
	reg.GaugeFunc(MetricSupQuarantined, func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.quarantined))
	})
	return supervisorMetrics{
		queueAge:  reg.Histogram(MetricSupQueueAge, nil),
		ticketDur: reg.Histogram(MetricSupTicketDur, nil),
	}
}
