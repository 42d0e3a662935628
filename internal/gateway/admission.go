package gateway

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/determinism"
)

// Quota is one tenant's admission envelope: a token-bucket rate limit on
// submissions plus a cap on jobs in flight (accepted by the gateway but
// not yet decided by the cluster).
type Quota struct {
	// Rate is the sustained submission rate in jobs/second refilling the
	// token bucket.
	Rate float64 `json:"rate"`
	// Burst is the bucket capacity: how many submissions can arrive
	// back-to-back before the rate limit bites.
	Burst float64 `json:"burst"`
	// MaxInflight caps concurrently undecided jobs; 0 means unlimited.
	MaxInflight int `json:"max_inflight"`
}

// Validate rejects quotas the token bucket cannot operate on.
func (q Quota) Validate() error {
	if q.Rate <= 0 {
		return fmt.Errorf("rate must be > 0, got %v", q.Rate)
	}
	if q.Burst < 1 {
		return fmt.Errorf("burst must be >= 1, got %v", q.Burst)
	}
	if q.MaxInflight < 0 {
		return fmt.Errorf("inflight must be >= 0, got %d", q.MaxInflight)
	}
	return nil
}

// ParseTenants parses the -tenants flag: semicolon-separated tenant
// clauses, each "name:rate=R,burst=B,inflight=N". Burst defaults to
// max(rate, 1) and inflight to unlimited when omitted:
//
//	acme:rate=50,burst=100,inflight=200;zeta:rate=10
func ParseTenants(spec string) (map[string]Quota, error) {
	out := make(map[string]Quota)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, params, found := strings.Cut(clause, ":")
		name = strings.TrimSpace(name)
		if !found || name == "" {
			return nil, fmt.Errorf("tenant clause %q is not name:rate=...", clause)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("tenant %q declared twice", name)
		}
		var q Quota
		for _, kv := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("tenant %q: parameter %q is not key=value", name, kv)
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: parameter %q: %v", name, kv, err)
			}
			switch key {
			case "rate":
				q.Rate = f
			case "burst":
				q.Burst = f
			case "inflight":
				q.MaxInflight = int(f)
			default:
				return nil, fmt.Errorf("tenant %q: unknown parameter %q", name, key)
			}
		}
		if q.Burst == 0 {
			q.Burst = math.Max(q.Rate, 1)
		}
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("tenant %q: %v", name, err)
		}
		out[name] = q
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tenant spec %q declares no tenants", spec)
	}
	return out, nil
}

// Decision is the outcome of one admission check.
type Decision struct {
	// OK reports whether the submission may proceed.
	OK bool
	// Reason labels the rejection for metrics and the error body:
	// "rate", "quota" or "laxity". Empty when OK.
	Reason string
	// RetryAfter is the client back-off hint behind the Retry-After
	// header: for rate rejections the time until a token refills, for
	// laxity rejections the observed p99 decision latency (the earliest
	// moment a retry could plausibly meet its deadline).
	RetryAfter time.Duration
}

// tenantState is one tenant's live admission state. Tokens refill lazily
// on each check from the elapsed wall time, so there is no refill ticker.
type tenantState struct {
	quota    Quota
	tokens   float64
	last     time.Time
	inflight int
}

// Admitter applies per-tenant quotas and the cluster-laxity gate. It is
// safe for concurrent use by HTTP handlers.
type Admitter struct {
	mu      sync.Mutex
	tenants map[string]*tenantState
	now     func() time.Time // injectable for tests

	// p99 is the cluster's current decision latency in seconds, fed by the
	// reconcile tick from Backend.Stats (0 when the cluster is not slow
	// now). A submission whose relative deadline is below laxityFactor×p99
	// is refused: the protocol would spend the job's whole laxity deciding,
	// and the surplus-based offer phase would reject it anyway after
	// burning cluster messages.
	p99          float64
	laxityFactor float64
}

// NewAdmitter builds an admitter over the given tenant quotas. The clock
// defaults to time.Now; tests override it via SetClock.
func NewAdmitter(quotas map[string]Quota) *Admitter {
	a := &Admitter{
		tenants:      make(map[string]*tenantState, len(quotas)),
		now:          time.Now,
		laxityFactor: 1.0,
	}
	for name, q := range quotas {
		a.tenants[name] = &tenantState{quota: q, tokens: q.Burst}
	}
	return a
}

// SetClock replaces the wall clock (tests only).
func (a *Admitter) SetClock(now func() time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.now = now
	for _, t := range a.tenants {
		t.last = time.Time{} // restart lazy refill under the new clock
	}
}

// ObserveDecisionLatency feeds the laxity gate with the cluster's current
// p99 decision latency in seconds.
func (a *Admitter) ObserveDecisionLatency(p99 float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.p99 = p99
}

// Known reports whether the tenant has a declared quota.
func (a *Admitter) Known(tenant string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.tenants[tenant]
	return ok
}

// Tenants lists the declared tenant names in sorted order.
func (a *Admitter) Tenants() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return determinism.SortedKeys(a.tenants)
}

// Quota returns the tenant's declared quota (zero value when unknown).
func (a *Admitter) Quota(tenant string) Quota {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.tenants[tenant]; ok {
		return t.quota
	}
	return Quota{}
}

// Inflight reports the tenant's current undecided-job count.
func (a *Admitter) Inflight(tenant string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.tenants[tenant]; ok {
		return t.inflight
	}
	return 0
}

// Admit checks one submission with relative deadline deadline (seconds)
// against the tenant's token bucket, its inflight cap and the cluster
// laxity gate. On success a token and an inflight slot are consumed; the
// caller must Release the slot once the job is decided (or was never
// durably accepted).
func (a *Admitter) Admit(tenant string, deadline float64) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tenants[tenant]
	if !ok {
		return Decision{Reason: "unknown"}
	}

	// Laxity gate first: it does not depend on this tenant's budget, and
	// refusing here must not burn a token the client will need when the
	// cluster drains.
	if a.p99 > 0 && deadline < a.laxityFactor*a.p99 {
		return Decision{Reason: "laxity", RetryAfter: secondsToDuration(a.p99)}
	}

	now := a.now()
	if !t.last.IsZero() {
		t.tokens = math.Min(t.quota.Burst, t.tokens+now.Sub(t.last).Seconds()*t.quota.Rate)
	}
	t.last = now

	if t.quota.MaxInflight > 0 && t.inflight >= t.quota.MaxInflight {
		// Inflight drains on cluster decisions; the observed p99 is the
		// best available estimate of when a slot frees up.
		wait := a.p99
		if wait <= 0 {
			wait = 1
		}
		return Decision{Reason: "quota", RetryAfter: secondsToDuration(wait)}
	}
	if t.tokens < 1 {
		wait := (1 - t.tokens) / t.quota.Rate
		return Decision{Reason: "rate", RetryAfter: secondsToDuration(wait)}
	}
	t.tokens--
	t.inflight++
	return Decision{OK: true}
}

// Release frees one inflight slot, after a decision or a failed accept.
func (a *Admitter) Release(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.tenants[tenant]; ok && t.inflight > 0 {
		t.inflight--
	}
}

// Restore re-occupies an inflight slot without consuming a token, used
// when replaying undecided jobs from the write-ahead log after a restart.
func (a *Admitter) Restore(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.tenants[tenant]; ok {
		t.inflight++
	}
}

// secondsToDuration converts a seconds value to a Duration, rounding up
// to 1s so Retry-After (an integer-seconds header) never says "0".
func secondsToDuration(s float64) time.Duration {
	d := time.Duration(s * float64(time.Second))
	if d < time.Second {
		return time.Second
	}
	return d
}
