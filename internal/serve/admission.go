package serve

import (
	"fmt"
	"math"
	"time"

	"scioto/internal/obs"
)

// admissionError is a refused submission: HTTP status, human-readable
// reason, and the client's suggested backoff.
type admissionError struct {
	status     int
	reason     string
	retryAfter time.Duration
}

func (e *admissionError) Error() string { return e.reason }

// bucket is one tenant's admission token bucket: capacity burst, refill
// rate tokens/second. rate 0 disables the bucket (always full). admitted
// is the tenant's admitted-task counter.
type bucket struct {
	tokens   float64
	burst    float64
	rate     float64
	last     time.Time
	admitted *obs.Counter
}

// bucketFor returns tenant's bucket, creating a full one on first
// sight. Caller holds d.mu.
func (d *Daemon) bucketFor(tenant string) *bucket {
	b := d.buckets[tenant]
	if b == nil {
		b = &bucket{
			tokens: float64(d.cfg.TenantBurst),
			burst:  float64(d.cfg.TenantBurst),
			rate:   d.cfg.TenantRate,
			last:   time.Now(),
			//lint:ignore obsdeterminism per-tenant series exist only on the gateway rank, whose registry serves /metrics directly; tenant names never enter the cross-rank merge schema, and each is registered once, with its bucket
			admitted: d.m.reg.Counter(fmt.Sprintf("scioto_serve_tenant_tasks_total{tenant=%q}", tenant),
				"tasks admitted for one tenant"),
		}
		d.buckets[tenant] = b
	}
	return b
}

// take attempts to withdraw n tokens at time now. On refusal it reports
// how long until the bucket will hold n tokens (capped at the burst
// refill time; a request larger than the burst can never succeed, and
// the wait says so by covering a full refill).
func (b *bucket) take(n int, now time.Time) (wait time.Duration, ok bool) {
	if b.rate <= 0 {
		return 0, true
	}
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		return 0, true
	}
	short := math.Min(need, b.burst) - b.tokens
	return time.Duration(short / b.rate * float64(time.Second)), false
}
