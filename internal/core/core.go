// Package core implements the RTDS protocol itself (paper §4–§11): per-site
// local scheduling, PCS bootstrap, ACS enrollment with locking, trial-mapping
// construction and validation, maximum-coupling permutation selection, and
// distributed execution with result messages.
//
// Every site runs the same state machine (there is no centralized control);
// sites communicate only over topology links, forwarding multi-hop traffic
// along their routing tables' next hops, so communication cost is accounted
// per link traversal exactly as the paper argues.
//
// How this package divides the protocol with internal/core/txn, policy
// and membership, and which file holds which role, is described once, in
// docs/architecture.md ("The protocol core").
package core
