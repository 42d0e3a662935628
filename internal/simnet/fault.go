package simnet

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/graph"
)

// FaultPlan describes deterministic fault injection for a transport: message
// loss, delay jitter and site crash windows, all derived from a single seed
// so any two runs of the same plan observe byte-identical fault sequences on
// the DES transport.
//
// Times are relative to the epoch passed to Transport.SetFaults. Protocol
// layers activate the plan only after their bootstrap completes, so the PCS
// construction always runs fault-free (the paper's §7 assumes a working
// network at start-up; faults model the *operational* phase of an arbitrary
// wide network).
//
// Crash semantics are fail-silent: a crashed site stops communicating — the
// transport drops every message to or from it for the duration of the
// window — while its local clock and timers keep running. This is equivalent
// to a network partition of the site and keeps local cleanup (lock leases,
// phase timeouts) alive, which is what lets faulty runs terminate instead of
// wedging. The plan only injects: how fast survivors notice a crash is the
// membership layer's timing (core.Config.Membership), not a plan field.
type FaultPlan struct {
	// Seed drives the loss and jitter draws. Two transports given the same
	// plan drop and delay exactly the same traversals (DES).
	Seed int64
	// Loss is the probability that one link traversal is dropped.
	Loss float64
	// MaxJitter adds a uniform extra delay in [0, MaxJitter) to every
	// delivered traversal. Jitter can reorder messages that share a link.
	MaxJitter float64
	// Crashes lists site outage windows.
	Crashes []Crash
}

// Crash is one site outage window, starting At (epoch-relative) and lasting
// For time units; For <= 0 means the site never recovers.
type Crash struct {
	Site graph.NodeID
	At   float64
	For  float64
}

// Permanent reports whether the crash is forever.
func (c Crash) Permanent() bool { return c.For <= 0 }

// Enabled reports whether the plan injects any fault at all.
func (p FaultPlan) Enabled() bool {
	return p.Loss > 0 || p.MaxJitter > 0 || len(p.Crashes) > 0
}

// Validate checks the plan against a network of n sites.
func (p FaultPlan) Validate(n int) error {
	if p.Loss < 0 || p.Loss > 1 {
		return fmt.Errorf("simnet: loss rate %v outside [0, 1]", p.Loss)
	}
	if p.MaxJitter < 0 {
		return fmt.Errorf("simnet: negative jitter %v", p.MaxJitter)
	}
	for _, c := range p.Crashes {
		if int(c.Site) < 0 || int(c.Site) >= n {
			return fmt.Errorf("simnet: crash site %d out of range", c.Site)
		}
		if c.At < 0 {
			return fmt.Errorf("simnet: negative crash time %v", c.At)
		}
	}
	return nil
}

// faultState is the per-transport injector. The mutex serializes the rand
// source on the live transport; the DES transport calls from a single
// goroutine, where lock cost is negligible next to determinism.
type faultState struct {
	mu    sync.Mutex
	rng   *rand.Rand
	plan  FaultPlan
	epoch float64
}

func newFaultState(plan FaultPlan, epoch float64) *faultState {
	return &faultState{rng: rand.New(rand.NewSource(plan.Seed)), plan: plan, epoch: epoch}
}

// down reports whether a site is inside one of its crash windows at time t.
func (f *faultState) down(site graph.NodeID, t float64) bool {
	for _, c := range f.plan.Crashes {
		if c.Site != site {
			continue
		}
		start := f.epoch + c.At
		if t < start {
			continue
		}
		if c.Permanent() || t < start+c.For {
			return true
		}
	}
	return false
}

// perturb decides the fate of one traversal sent at time `at` with base link
// delay `delay`: it returns the (possibly jittered) delay and whether the
// traversal is dropped. Crash windows are pure functions of (site, time):
// a plan with crashes only takes no lock and consumes no randomness, so it
// is reproducible without regard to traffic interleaving and safe to
// evaluate from concurrent simulation partitions. Loss and jitter draw from
// the seeded source in send order.
func (f *faultState) perturb(from, to graph.NodeID, at, delay float64) (float64, bool) {
	if f.down(from, at) || f.down(to, at+delay) {
		return delay, true
	}
	if f.plan.Loss <= 0 && f.plan.MaxJitter <= 0 {
		return delay, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.plan.Loss > 0 && f.rng.Float64() < f.plan.Loss {
		return delay, true
	}
	if f.plan.MaxJitter > 0 {
		delay += f.rng.Float64() * f.plan.MaxJitter
	}
	return delay, false
}

// Injector applies a FaultPlan for transports implemented outside this
// package (the wire package's TCP transport perturbs traversals at the
// socket layer with exactly the semantics the DES and live transports
// implement). Safe for concurrent use.
type Injector struct{ st *faultState }

// NewInjector arms a fault plan whose times are relative to epoch.
func NewInjector(plan FaultPlan, epoch float64) *Injector {
	return &Injector{st: newFaultState(plan, epoch)}
}

// Perturb decides the fate of one link traversal sent at time `at` with
// base delay `delay`: it returns the (possibly jittered) delay and whether
// the traversal is dropped.
func (i *Injector) Perturb(from, to graph.NodeID, at, delay float64) (float64, bool) {
	return i.st.perturb(from, to, at, delay)
}
