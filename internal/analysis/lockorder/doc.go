package lockorder

// DocumentedHierarchy is the canonical lock hierarchy of the packages the
// lockorder check polices (every repro/internal package outside the linter
// and internal/determinism), as derived by Hierarchy and verified against
// the derivation by TestDocumentedHierarchyMatchesDerived — editing one
// without the other fails the build's test leg, and the failure prints the
// derived list.
//
// It holds three independent nestings, each two classes deep, listed in one
// topological order:
//
//   - gateway.Server.mu before gateway.Admitter.mu: a duplicate submission
//     creates its tenant's stats row under Server.mu, reading the tenant's
//     quota from the Admitter;
//   - gateway.backendNode.reading before gateway.backendNode.mu: a site's
//     journal reader checks, under reading, whether the site still owes
//     decisions;
//   - metrics.family.mu before metrics.Histogram.mu: the exposition
//     renders each histogram child under its family's lock.
//
// The message path — internal/core, internal/simnet and internal/wire —
// stays flat: no mutex there is acquired, directly or through any chain of
// calls, while another is held. The code achieves this by snapshotting
// under a lock and working on the snapshot after release:
// wire.NetTransport.Send drops its mu before queueing on the process
// Clock, whose dispatcher pops under Clock.mu but pushes onto the per-site
// fifo queues (whose own mu is taken push/pop-local) after releasing it,
// the transport's accessors hand out field pointers without locking, and
// core.Cluster calls only lock-free accessors (Transport.Stats,
// Transport.Now, payload Kind/SizeBytes) under Cluster.mu. A Send made
// under Cluster.mu would add core.Cluster.mu, wire.EncodeArena.mu and
// wire.NetTransport.mu here and fail the agreement test.
//
// If a future change nests acquisitions, the lockorder analyzer starts
// ordering the classes involved, this list stops matching the derivation,
// and the agreement test forces the new hierarchy to be recorded — and
// thought about — here.
var DocumentedHierarchy = []string{
	"repro/internal/gateway.Server.mu",
	"repro/internal/gateway.Admitter.mu",
	"repro/internal/gateway.backendNode.reading",
	"repro/internal/gateway.backendNode.mu",
	"repro/internal/metrics.family.mu",
	"repro/internal/metrics.Histogram.mu",
}
