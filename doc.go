// Package rtds is a Go implementation of Real-Time Distributed Scheduling
// of precedence graphs on arbitrary wide networks, reproducing the
// algorithm of Butelle, Hakem and Finta (IPPS 2007).
//
// # Model
//
// A network is an arbitrary connected graph of sites joined by
// bidirectional links weighted with communication delays. Sporadic
// real-time jobs — DAGs of tasks with computational complexities, a release
// and a hard deadline — arrive at any site at any time and compete for the
// sites' computation processors.
//
// Each site runs the same code; there is no centralized control. An
// arriving job is first put to the local guarantee test; if the whole DAG
// fits between the site's existing reservations it is accepted on the
// spot. Otherwise the site becomes the initiator of a distributed
// transaction that progresses through three named phases (the state
// machine of internal/core/txn):
//
//   - Enrolling — the sphere policy picks members of the precomputed
//     Potential Computing Sphere to lock; their surplus reports form the
//     Accepted Computing Sphere when the window closes;
//   - Validating — the mapper list-schedules the DAG onto logical
//     processors and every member reports which processors it can endorse;
//   - Committing — a maximum coupling assigns processors to members; a
//     perfect coupling dispatches the tasks, anything less aborts and
//     unlocks everyone.
//
// Every transition is guarded and timer-backed, so lost messages, silent
// members and crashed initiators degrade into rejections instead of
// wedged locks.
//
// # Membership
//
// Failure knowledge belongs to the protocol, not a harness: the
// membership layer (internal/core/membership) runs one manager per site
// that heartbeats its topology neighbors, declares a silent neighbor dead
// after a suspicion timeout, floods incarnation-guarded death and
// resurrection notices, and repairs routing tables through epoch-tagged
// re-floods bounded like the bootstrap — stale-epoch tables are rejected
// so routes computed under different membership views never mix. A
// JoinReq/JoinAck handshake lets a fresh process for a crashed site enter
// a running cluster and start serving enrollments (Node.StartJoin,
// rtds-node -join). Membership arms automatically when a fault plan
// injects crashes; its timing is written in Config.Membership only.
//
// # Policies and schemes
//
// The protocol's decision points are pluggable (Config.Policies, the
// policy layer): the enrollment fan-out (full sphere or k-redundant), the
// local acceptance test (EDF or a laxity threshold), the laxity
// dispatching and the mapper heuristic. Config.Policies is the only place
// any of the four is chosen; nil policies are the paper's choices.
//
// Complete scheduling algorithms are registered as schemes — rtds,
// rtds-hier, broadcast, local, fab (focused addressing + bidding) and
// oracle — and built by name:
//
//	c, err := rtds.BuildScheme("broadcast", topo, rtds.SchemeConfig{})
//	if err != nil { ... }
//	_ = c.Submit(0, 0, job, 66)
//	if err := c.Run(); err != nil { ... }
//	fmt.Println(c.Summarize().GuaranteeRatio)
//
// # Transports and deployment
//
// The protocol core is transport-agnostic (simnet.Transport). The
// deterministic discrete-event simulator runs every experiment; the TCP
// transport of internal/wire runs one site per process in deployment
// (cmd/rtds-node) and every site in one process for NewLiveCluster. See
// docs/architecture.md ("Transports") for both.
//
// # Gateway
//
// A deployed cluster is fronted by cmd/rtds-gateway
// (internal/gateway), the production submission API. A POST /v1/jobs
// passes four gates before it is acked: payload validation against the
// dag schema and the wire codec; per-tenant admission (token-bucket
// rate, inflight quota); laxity backpressure (jobs whose deadline is
// tighter than the cluster's observed p99 decision latency are refused
// 429 with Retry-After, before they cost cluster work); and durability —
// the submission is appended to a write-ahead job log (internal/joblog,
// group-commit fsync, truncation-tolerant recovery) before the 202
// leaves. A restarted gateway replays undecided jobs into the cluster;
// an acked submission is never lost. Both the gateway and every node
// expose a Prometheus text /metrics plane built on the stdlib-only
// registry in internal/metrics.
//
// # Static analysis
//
// The determinism and protocol invariants the packages above rely on are
// machine-checked by cmd/rtds-lint (internal/analysis): six
// project-specific analyzers, listed in docs/architecture.md ("Static
// analysis"). CI fails on any finding; exceptions are annotated in the
// source with //lint:allow <check> -- <justification>.
//
// # Quick start
//
//	topo := rtds.NewRandomNetwork(16, 3, 42)
//	cluster, err := rtds.NewCluster(topo, rtds.DefaultConfig())
//	if err != nil { ... }
//	job := rtds.NewJob("render").
//		Task(1, 6).Task(2, 4).Task(3, 4).Task(4, 2).Task(5, 5).
//		Edge(1, 3).Edge(2, 3).Edge(1, 4).Edge(3, 5).Edge(4, 5).
//		MustBuild()
//	rec, err := cluster.Submit(0, 0, job, 66)
//	if err != nil { ... }
//	if err := cluster.Run(); err != nil { ... }
//	fmt.Println(rec.Outcome, cluster.Summarize())
//
// The package is a facade: the implementation lives in the internal
// packages (internal/core for the protocol I/O, internal/core/txn for the
// transaction state machine, internal/core/policy for the policy layer,
// internal/scheme for the scheme registry, internal/mapper for the
// trial-mapping construction, internal/routing for sphere construction,
// internal/schedule for the local scheduler, and so on). See
// docs/architecture.md for the full inventory and docs/operations.md for
// deployment and soak runbooks.
package rtds
