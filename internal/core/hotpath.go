package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
)

// The two protocol-layer hot paths whose allocation counts are pinned by
// this package's tests and gated by experiments.RunMicroBenches. Each
// constructor builds a small DES cluster and returns the closure that
// performs one operation in steady state, so the pin and the gate run the
// same code.

// NewRelayHop returns a step that relays one routed message across the
// middle site of a 3-site line: Site.handle → forward → DES.Send →
// Queue.Step, the delivery at the destination (an acknowledgement nobody
// waits for) included. kernelWorkers is Config.KernelWorkers.
func NewRelayHop(kernelWorkers int) (step func(), err error) {
	cfg := DefaultConfig()
	cfg.KernelWorkers = kernelWorkers
	c, err := NewCluster(graph.Line(3, graph.UnitDelay, 1), cfg)
	if err != nil {
		return nil, err
	}
	relay := c.sites[1]
	m := NewRouted(0, 2, 0, UnlockAck{Job: "nobody", Member: 0})
	var p simnet.Payload = m
	return func() {
		m.TTL = 2 // spent by the hop; the message itself is reused
		relay.handle(0, p)
		if err := c.Run(); err != nil {
			panic(err)
		}
	}, nil
}

// soloHost hosts site 0 of a 2-site line alone on the serial DES: its
// routing table holds the one neighbour, which is a sink that swallows
// whatever it is sent. decorate, if non-nil, wraps the transport before the
// site attaches to it. The site's locks and deferred queue can then be
// driven by hand, with Cluster.Run draining what it sends.
func soloHost(cfg Config, decorate func(simnet.Transport) simnet.Transport) (*Cluster, error) {
	topo := graph.Line(2, graph.UnitDelay, 1)
	if err := cfg.validate(topo); err != nil {
		return nil, err
	}
	kernel, err := simnet.NewKernel(topo, 0)
	if err != nil {
		return nil, err
	}
	var tr simnet.Transport = simnet.NewDES(kernel, topo)
	if decorate != nil {
		tr = decorate(tr)
	}
	c, err := newHost(topo, cfg, tr, []graph.NodeID{0})
	if err != nil {
		return nil, err
	}
	c.kernel = kernel
	tr.Attach(1, func(graph.NodeID, simnet.Payload) {})
	c.sites[0].adoptTable(routing.NewTable(0, topo.Neighbors(0)))
	return c, nil
}

// NewUnlockReplay returns a step that unlocks a site holding n deferred
// enrollments: the first re-locks the site (and acknowledges, which is the
// step's only allocation: the boxed EnrollAck and its routed header), the
// other n-1 find it locked again and requeue. The step then requeues the
// enrollment it consumed, so every call sees the same queue.
func NewUnlockReplay(n int) (step func(), err error) {
	c, err := soloHost(DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	s := c.sites[0]
	enroll := func(job string) deferredWork {
		return deferredWork{src: 1, req: EnrollReq{Job: job, Initiator: 1, Window: 1}}
	}
	s.lock(1, "held")
	for i := 0; i < n; i++ {
		s.deferWork(enroll(fmt.Sprintf("j%d", i)))
	}
	return func() {
		s.unlock()
		if len(s.deferred) != n-1 || !s.locked() {
			panic(fmt.Sprintf("core: unlock replay left %d deferred, locked=%v", len(s.deferred), s.locked()))
		}
		s.deferWork(enroll(s.lockJob))
		if err := c.Run(); err != nil { // the sink swallows the ack
			panic(err)
		}
	}, nil
}
