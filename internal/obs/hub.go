package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"scioto/internal/trace"
)

// Hub collects the observability state of every rank hosted by one OS
// process: on the in-process transports (shm, dsim) that is all ranks; on
// tcp each spawned rank process has a hub of its own (and the launching
// parent's hub stays empty). The introspection HTTP endpoint serves a
// hub, and the fault-injection layer reports injected faults through it.
//
// All methods are safe for concurrent use: registries attach from rank
// goroutines while the HTTP server reads.
type Hub struct {
	start time.Time

	mu      sync.Mutex
	regs    map[int]*Registry
	tracers map[int]*trace.Recorder
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{
		start:   time.Now(),
		regs:    make(map[int]*Registry),
		tracers: make(map[int]*trace.Recorder),
	}
}

// Registry finds or creates the registry for a rank.
func (h *Hub) Registry(rank int) *Registry {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.regs[rank]
	if !ok {
		r = NewRegistry(rank)
		h.regs[rank] = r
	}
	return r
}

// SetTracer associates a rank's trace recorder with the hub so injected
// faults can be stamped into the rank's trace (nil detaches).
func (h *Hub) SetTracer(rank int, r *trace.Recorder) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tracers[rank] = r
}

// Tracer returns the rank's recorder (nil — a valid disabled recorder —
// when none is attached).
func (h *Hub) Tracer(rank int) *trace.Recorder {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tracers[rank]
}

// Ranks lists the ranks with registries, ascending.
func (h *Hub) Ranks() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return sortedRanks(h.regs)
}

// Uptime reports time since the hub was created.
func (h *Hub) Uptime() time.Duration { return time.Since(h.start) }

// WriteProm renders every rank's registry with a rank label. HELP/TYPE
// lines are emitted once per base name across ranks, as the text format
// requires.
func (h *Hub) WriteProm(w io.Writer) {
	h.mu.Lock()
	regs := make([]*Registry, 0, len(h.regs))
	for _, rank := range sortedRanks(h.regs) {
		regs = append(regs, h.regs[rank])
	}
	h.mu.Unlock()
	typeSeen := make(map[string]bool)
	for _, r := range regs {
		extra := fmt.Sprintf(`rank="%d"`, r.Rank())
		for _, m := range r.snapshotMetrics() {
			writeMetric(w, m, extra, typeSeen)
		}
	}
}

// Fault-kind codes stamped into trace records (trace.Fault's a1), so the
// merged trace can distinguish injected fault classes without strings.
const (
	FaultDrop int64 = iota
	FaultCrash
	FaultDelay
)

// FaultKindName names a fault-kind code (the inverse of RecordFault's
// kind argument, used by trace tooling).
func FaultKindName(code int64) string {
	switch code {
	case FaultDrop:
		return "drop"
	case FaultCrash:
		return "crash"
	case FaultDelay:
		return "delay"
	default:
		return fmt.Sprintf("fault(%d)", code)
	}
}

// faultKindCode maps the fault-injection layer's kind strings to codes.
func faultKindCode(kind string) int64 {
	switch kind {
	case "drop":
		return FaultDrop
	case "crash":
		return FaultCrash
	case "delay":
		return FaultDelay
	default:
		return -1
	}
}

// RecordFault notes one injected fault against the observing rank: a
// per-(kind, target) counter on the rank's registry and, when the rank
// has a trace recorder attached, a trace instant at the fault's timestamp.
// Signature matches faulty.Config.Observe.
func (h *Hub) RecordFault(now time.Duration, rank int, kind, op string, target int) {
	h.Registry(rank).Counter(
		fmt.Sprintf(`scioto_faults_injected_total{kind=%q,target="%d"}`, kind, target),
		"injected faults observed by this rank, by fault kind and target rank",
	).Inc()
	h.Tracer(rank).Record(trace.Fault, now, now, faultKindCode(kind), int64(target))
}
