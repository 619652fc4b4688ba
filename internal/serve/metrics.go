package serve

import "scioto/internal/obs"

// metrics holds the serve-plane instruments. Registration happens once
// per rank in Daemon.Body, before the gateway/worker split, with
// constant names — every rank's registry carries the identical schema
// even though only the gateway rank ever moves most of these. (obs
// counters are nil-safe, so a world with observability disabled costs
// nothing.)
type metrics struct {
	submissions     *obs.Counter
	admitted        *obs.Counter
	rejected        *obs.Counter
	completed       *obs.Counter
	discarded       *obs.Counter
	dropped         *obs.Counter
	phases          *obs.Counter
	replayed        *obs.Counter
	resultBytes     *obs.Counter
	pending         *obs.Gauge
	ingestQueue     *obs.Gauge
	deferredWaiting *obs.Gauge
	turnaround      *obs.Histogram

	reg *obs.Registry // for per-tenant series (gateway-local, see bucketFor)
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		submissions:     reg.Counter("scioto_serve_submissions_total", "submissions admitted"),
		admitted:        reg.Counter("scioto_serve_tasks_admitted_total", "tasks admitted into the pending pool"),
		rejected:        reg.Counter("scioto_serve_rejections_total", "submissions refused by admission control"),
		completed:       reg.Counter("scioto_serve_results_total", "task results delivered to submissions"),
		discarded:       reg.Counter("scioto_serve_results_discarded_total", "task results discarded after cancellation"),
		dropped:         reg.Counter("scioto_serve_tasks_dropped_total", "queued tasks dropped by cancellation"),
		phases:          reg.Counter("scioto_serve_phases_total", "task-parallel phases entered (TC.Process calls; one until a drain or a recovery ends it)"),
		replayed:        reg.Counter("scioto_serve_tasks_replayed_total", "tasks re-queued after a recovery because their results died with the failed rank"),
		resultBytes:     reg.Counter("scioto_serve_result_bytes_total", "result payload bytes delivered"),
		pending:         reg.Gauge("scioto_serve_pending_tasks", "admitted tasks not yet terminal"),
		ingestQueue:     reg.Gauge("scioto_serve_ingest_queue", "admitted tasks awaiting the next pump pass"),
		deferredWaiting: reg.Gauge("scioto_serve_deferred_waiting", "tasks parked in the deferred pool"),
		turnaround:      reg.Histogram("scioto_serve_turnaround_seconds", "submission-to-result latency"),
		reg:             reg,
	}
}
