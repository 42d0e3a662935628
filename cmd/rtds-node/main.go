// Command rtds-node runs ONE RTDS site as a real networked process: the
// protocol core over the internal/wire TCP transport, with an HTTP control
// plane (internal/nodeapi) for job submission, decision polling and
// metrics. N processes with a shared topology seed form a cluster that
// reaches the same decisions as the in-process transports.
//
// Every process must be given the same -topo/-sites/-seed (they generate
// the shared topology deterministically) and a -peers map naming each
// site's protocol address.
//
// Usage:
//
//	rtds-node -id 0 -sites 8 -topo random -seed 1 \
//	          -listen 127.0.0.1:7100 \
//	          -peers 0=127.0.0.1:7100,1=127.0.0.1:7101,... \
//	          -http 127.0.0.1:8100 \
//	          [-scheme rtds] [-policy sphere=k6,accept=laxity0.25] \
//	          [-scale 2ms] [-loss 0.1] [-jitter 0.05] \
//	          [-hb 25] [-suspect 100] [-join]
//
// Membership (heartbeats, failure detection, epoch-tagged route repair) is
// on by default; -hb 0 disables it. With -join the process enters a
// RUNNING cluster instead of bootstrapping with it: it skips the §7 PCS
// construction and asks its topology neighbors for admission — the shape a
// replacement for a crashed site uses. In join mode -peers only needs to
// name reachable seed peers among the site's topology neighbors.
//
// The process exits 0 on SIGINT/SIGTERM after a graceful shutdown (HTTP
// drained, transport closed).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/nodeapi"
	"repro/internal/scheme"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func main() {
	id := flag.Int("id", -1, "site id of this node (0..sites-1)")
	sites := flag.Int("sites", 8, "number of sites in the shared topology")
	topoKind := flag.String("topo", "random", "topology kind: ring|line|star|clique|grid|torus|hypercube|tree|random|geometric")
	seed := flag.Int64("seed", 1, "topology seed (identical on every node)")
	listen := flag.String("listen", "", "TCP address for protocol traffic (required)")
	peers := flag.String("peers", "", "comma-separated id=host:port protocol addresses of all sites (required)")
	httpAddr := flag.String("http", "", "HTTP address of the control/metrics API (empty = disabled)")
	schemeName := flag.String("scheme", "rtds", "RTDS-core scheme to run ("+strings.Join(scheme.Names(), "|")+")")
	policySpec := flag.String("policy", "", "policy overrides, e.g. sphere=k6,accept=laxity0.25,dispatch=weighted")
	scale := flag.Duration("scale", 2*time.Millisecond, "wall-clock duration of one virtual time unit")
	slack := flag.Float64("slack", 8, "enrollment slack in virtual units (wall clocks need real headroom)")
	pad := flag.Float64("pad", 30, "release pad factor (mapper release = now + pad*omega)")
	loss := flag.Float64("loss", 0, "fault injection: per-traversal loss probability at the socket layer")
	jitter := flag.Float64("jitter", 0, "fault injection: max extra delay per traversal (virtual units)")
	hb := flag.Float64("hb", 25, "membership heartbeat period in virtual units (0 = membership off)")
	suspect := flag.Float64("suspect", 0, "membership suspicion timeout in virtual units (0 = 3x the heartbeat)")
	join := flag.Bool("join", false, "enter a running cluster via the join handshake instead of bootstrapping")
	bootTimeout := flag.Duration("boot-timeout", 60*time.Second, "how long to wait for the distributed PCS bootstrap")
	flag.Parse()

	if err := run(runOpts{
		id: *id, sites: *sites, topoKind: *topoKind, seed: *seed,
		listen: *listen, peers: *peers, httpAddr: *httpAddr,
		schemeName: *schemeName, policySpec: *policySpec,
		scale: *scale, slack: *slack, pad: *pad, loss: *loss, jitter: *jitter,
		hb: *hb, suspect: *suspect, join: *join, bootTimeout: *bootTimeout,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	id, sites              int
	topoKind               string
	seed                   int64
	listen, peers          string
	httpAddr               string
	schemeName, policySpec string
	scale                  time.Duration
	slack, pad             float64
	loss, jitter           float64
	hb, suspect            float64
	join                   bool
	bootTimeout            time.Duration
}

func run(o runOpts) error {
	id, sites, seed := o.id, o.sites, o.seed
	if id < 0 || id >= sites {
		return fmt.Errorf("-id %d out of range [0,%d)", id, sites)
	}
	if o.listen == "" || o.peers == "" {
		return fmt.Errorf("-listen and -peers are required")
	}
	if o.join && o.hb <= 0 {
		return fmt.Errorf("-join requires membership (-hb > 0)")
	}
	topo, err := graph.Generate(graph.TopologyKind(o.topoKind), sites, experiments.StdDelays, seed)
	if err != nil {
		return err
	}
	peerMap, err := nodeapi.ParseAddrs("peers", o.peers, sites, false)
	if err != nil {
		return err
	}
	cfg, err := scheme.CoreConfig(o.schemeName, topo)
	if err != nil {
		return err
	}
	cfg.EnrollSlack = o.slack
	cfg.ReleasePadFactor = o.pad
	if cfg.Policies, err = scheme.ParsePolicies(o.policySpec); err != nil {
		return err
	}
	if o.loss > 0 || o.jitter > 0 {
		cfg.Faults = &simnet.FaultPlan{Seed: seed, Loss: o.loss, MaxJitter: o.jitter}
	}
	if o.hb > 0 {
		cfg.Membership = membership.Config{
			Enabled:        true,
			HeartbeatEvery: o.hb,
			SuspectAfter:   o.suspect, // 0 defaults to 3x the heartbeat
		}
	}

	tr, err := wire.Listen(wire.NetConfig{
		Self:   graph.NodeID(id),
		Topo:   topo,
		Listen: o.listen,
		Peers:  peerMap,
		Scale:  o.scale,
		Seed:   seed*1000 + int64(id), // deterministic reconnect jitter per node
	})
	if err != nil {
		return err
	}
	defer tr.Close()
	node, err := core.NewNode(topo, cfg, tr, graph.NodeID(id))
	if err != nil {
		return err
	}

	api := nodeapi.New(node)
	var httpSrv *http.Server
	if o.httpAddr != "" {
		httpSrv = &http.Server{Addr: o.httpAddr, Handler: api}
		// Shutdown waits for handlers: let go of the gateway's long-polls,
		// or SIGTERM takes as long as the longest of them still has to wait.
		httpSrv.RegisterOnShutdown(api.ReleaseWaiters)
		//lint:allow spawncheck -- the HTTP listener lives for the process; shutdown below unblocks ListenAndServe
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "http:", err)
				os.Exit(1)
			}
		}()
	}

	tr.Start()
	if o.join {
		if err := node.StartJoin(); err != nil {
			return err
		}
		fmt.Printf("rtds-node %d/%d (%s seed %d): protocol %s, joining the running cluster...\n",
			id, sites, o.topoKind, seed, tr.Addr())
		if !node.WaitReady(o.bootTimeout) {
			return fmt.Errorf("join handshake did not complete within %v (are the seed peers up?)", o.bootTimeout)
		}
		node.Seal()
		api.SetReady()
		snap := node.Membership()
		fmt.Printf("rtds-node %d: joined (scheme %s, incarnation %d, epoch %#x)\n",
			id, o.schemeName, snap.Inc, snap.Epoch)
	} else {
		node.StartBootstrap()
		fmt.Printf("rtds-node %d/%d (%s seed %d): protocol %s, bootstrap over TCP...\n",
			id, sites, o.topoKind, seed, tr.Addr())
		if !node.WaitReady(o.bootTimeout) {
			return fmt.Errorf("PCS bootstrap did not complete within %v (are the peers up?)", o.bootTimeout)
		}
		node.Seal()
		api.SetReady()
		bm, _ := node.BootstrapCost()
		fmt.Printf("rtds-node %d: ready (scheme %s, %d bootstrap messages, sphere radius %d, membership %v)\n",
			id, o.schemeName, bm, cfg.Radius, o.hb > 0)
	}

	// Graceful shutdown on SIGINT/SIGTERM: drain HTTP, close the transport.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("rtds-node %d: shutting down\n", id)
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}
	tr.Close()
	if v := node.Violations(); len(v) > 0 {
		return fmt.Errorf("causality violations: %v", v)
	}
	return nil
}
