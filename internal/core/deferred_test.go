package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/simnet"
)

// hookedTransport lets a scenario observe, and react synchronously to, what
// the site under test sends.
type hookedTransport struct {
	simnet.Transport
	onSend func(p simnet.Payload)
}

func (h *hookedTransport) Send(from, to graph.NodeID, p simnet.Payload) error {
	if h.onSend != nil {
		h.onSend(p)
	}
	return h.Transport.Send(from, to, p)
}

// soloSite is a traced soloHost whose deferred queue is driven by hand. The log
// interleaves, in the order they happened, the lifecycle events the site
// recorded and the enrollment acknowledgements it sent.
type soloSite struct {
	t   *testing.T
	c   *Cluster
	s   *Site
	tr  *hookedTransport
	log []string
	// react scripts synchronous reactions to an acknowledgement, keyed by
	// the acknowledged job (a zero-latency peer, as far as the queue can
	// tell).
	react  map[string]func()
	evSeen int
}

func newSoloSite(t *testing.T) *soloSite {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TraceEvents = true
	h := &soloSite{t: t, react: map[string]func(){}}
	c, err := soloHost(cfg, func(tr simnet.Transport) simnet.Transport {
		h.tr = &hookedTransport{Transport: tr}
		return h.tr
	})
	if err != nil {
		t.Fatal(err)
	}
	h.c, h.s = c, c.sites[0]
	h.tr.onSend = func(p simnet.Payload) {
		if ack, ok := p.(Routed).Inner.(EnrollAck); ok {
			h.flushEvents()
			h.log = append(h.log, "ack "+ack.Job)
			if fn := h.react[ack.Job]; fn != nil {
				fn()
			}
		}
	}
	return h
}

func (h *soloSite) flushEvents() {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	for _, e := range h.c.events[h.evSeen:] {
		if e.Kind == EvArrival || e.Kind == EvDeferred || e.Kind == EvLocalOK {
			h.log = append(h.log, fmt.Sprintf("%s %s", e.Kind, e.Job))
		}
	}
	h.evSeen = len(h.c.events)
}

// enroll delivers an enrollment request from the given initiator.
func (h *soloSite) enroll(job string, initiator graph.NodeID) {
	h.s.onEnroll(1, EnrollReq{Job: job, Initiator: initiator, Window: 1})
}

// arrive submits a small, locally feasible job and lets its arrival fire.
func (h *soloSite) arrive() string {
	job, err := h.c.Submit(0, 0, chainJob(h.t, 1, 1), 1000)
	if err != nil {
		h.t.Fatal(err)
	}
	h.run()
	return job.ID
}

func (h *soloSite) run() {
	if err := h.c.Run(); err != nil {
		h.t.Fatal(err)
	}
}

// release plays the initiator holding the lock: it unlocks the site, which
// replays the deferred queue.
func (h *soloSite) release() { h.s.onUnlock(UnlockMsg{Job: h.s.lockJob, From: h.s.lockedBy}) }

// TestDeferredReplayOrder pins the order contract of Site.unlock over
// scripted queues: a replayed item that finds the site locked again queues
// behind what earlier items of the same pass deferred and ahead of the items
// after it, and a re-entered unlock replays exactly what has been requeued
// so far. The expectations are what the closure queue this replaced
// produced: the scenarios use no queue internals, and the table was run
// against that implementation before it was deleted.
func TestDeferredReplayOrder(t *testing.T) {
	cases := []struct {
		name   string
		script func(h *soloSite)
		want   []string
		// state after the first release: who holds the lock, how many
		// items are queued.
		lockJob string
		queued  int
	}{
		{
			name: "first item re-locks, the rest requeue in order",
			script: func(h *soloSite) {
				h.enroll("a", 1)
				h.enroll("b", 1)
				h.enroll("c", 1)
			},
			want:    []string{"ack a", "ack b", "ack c"},
			lockJob: "a", queued: 2,
		},
		{
			name: "arrivals and enrollments mixed",
			script: func(h *soloSite) {
				h.arrive() // j1@0
				h.enroll("a", 1)
				h.arrive() // j2@0
				h.enroll("b", 1)
				h.arrive() // j3@0
			},
			want: []string{
				"deferred j1@0", "deferred j2@0", "deferred j3@0", // while held
				"arrival j1@0", "local-accept j1@0", "ack a", "deferred j2@0", "deferred j3@0",
				"arrival j2@0", "local-accept j2@0", "ack b", "deferred j3@0",
				"arrival j3@0", "local-accept j3@0",
			},
			lockJob: "a", queued: 3,
		},
		{
			name: "work deferred by a replayed item goes ahead of the items after it",
			script: func(h *soloSite) {
				h.enroll("a", 1)
				h.enroll("b", 1)
				h.enroll("c", 1)
				h.react["a"] = func() { h.enroll("n", 1) }
			},
			want:    []string{"ack a", "ack n", "ack b", "ack c"},
			lockJob: "a", queued: 3,
		},
		{
			name: "unlock re-entered from a replayed item",
			script: func(h *soloSite) {
				h.enroll("a", 1)
				h.enroll("b", 1)
				h.enroll("c", 1)
				// a's initiator answers at once: three more enrollments,
				// then the release of a — inside a's replay, before b and c.
				// The inner pass requeues more than the outer one has
				// consumed: its queue must not share the outer snapshot's
				// array.
				h.react["a"] = func() {
					h.enroll("n", 1)
					h.enroll("m", 1)
					h.enroll("o", 1)
					h.release()
				}
			},
			want:    []string{"ack a", "ack n", "ack m", "ack o", "ack b", "ack c"},
			lockJob: "n", queued: 4,
		},
		{
			name: "unlock re-entered twice in one pass, with arrivals",
			script: func(h *soloSite) {
				h.enroll("a", 1)
				h.arrive() // j1@0
				h.enroll("b", 1)
				h.enroll("c", 1)
				h.react["a"] = func() {
					h.enroll("n", 1)
					h.enroll("m", 1)
					h.release()
				}
				h.react["n"] = func() { h.release() }
			},
			want: []string{
				"deferred j1@0",
				"ack a", "ack n", "ack m", "deferred j1@0",
				"arrival j1@0", "local-accept j1@0", "ack b", "ack c",
			},
			lockJob: "m", queued: 3,
		},
		{
			name: "an enrollment the site initiated itself releases synchronously",
			script: func(h *soloSite) {
				h.enroll("r", 0) // ack and straggler unlock never leave the site
				h.enroll("a", 1)
				h.enroll("b", 1)
			},
			want:    []string{"ack a", "ack b"},
			lockJob: "a", queued: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newSoloSite(t)
			h.s.lock(1, "held")
			tc.script(h)
			h.release()
			if h.s.lockJob != tc.lockJob || len(h.s.deferred) != tc.queued {
				t.Errorf("after the first release: locked for %q with %d queued, want %q with %d",
					h.s.lockJob, len(h.s.deferred), tc.lockJob, tc.queued)
			}
			for guard := 0; h.s.locked(); guard++ {
				if guard > 20 {
					t.Fatal("site never drained")
				}
				h.release()
			}
			h.run()
			h.flushEvents()
			if !reflect.DeepEqual(h.log, tc.want) {
				t.Errorf("replay order\n got  %q\n want %q", h.log, tc.want)
			}
			if !h.s.idle() {
				t.Errorf("site not idle: %d items still queued", len(h.s.deferred))
			}
			if v := h.c.Violations(); len(v) != 0 {
				t.Errorf("violations: %v", v)
			}
		})
	}
}
