package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/nodeapi"
)

// Backend is the gateway's view of the RTDS cluster: submit a job, poll
// decisions, read scheduling statistics. The production implementation is
// HTTPBackend over the rtds-node control API; tests substitute fakes.
type Backend interface {
	// Submit forwards one job and returns the cluster-assigned job ID
	// (e.g. "j3@7" — the @site suffix names the owning site).
	Submit(at, deadline float64, graph json.RawMessage) (clusterID string, err error)
	// Decisions reports cluster verdicts keyed by cluster job ID, at least
	// once each: a backend may report the whole history on every call or
	// only what it has not reported before, and may include pending jobs
	// and jobs the caller never forwarded. A verdict can be reported
	// before the Submit that returns its ID has returned (a node decides a
	// local accept inside the submission), so the caller must not drop
	// verdicts for IDs it does not know yet.
	Decisions() (map[string]BackendDecision, error)
	// Stats aggregates scheduling statistics across the reachable sites.
	Stats() (BackendStats, error)
}

// DecisionWatcher is an optional capability of a Backend, found by type
// assertion: a backend that can report a verdict when it is made, not when
// it is next asked. A Backend without it (fakes, decorators) is polled on
// the reconcile tick alone.
type DecisionWatcher interface {
	// WatchDecisions starts delivering verdicts, under the contract of
	// Decisions, from goroutines the backend owns: deliver may be called
	// concurrently with itself and with Decisions. The returned stop ends
	// the deliveries and returns once those goroutines have exited.
	WatchDecisions(deliver func(map[string]BackendDecision)) (stop func())
}

// BackendDecision is one cluster job's decision state.
type BackendDecision struct {
	// Outcome is the cluster outcome name: "pending", "accepted-local",
	// "accepted-distributed" or "rejected".
	Outcome string
	// Latency is the decision latency in virtual seconds (decision time
	// minus arrival); 0 while pending.
	Latency float64
}

// Decided reports whether the cluster has reached a verdict.
func (d BackendDecision) Decided() bool {
	return d.Outcome != "" && d.Outcome != "pending"
}

// BackendStats is the slice of cluster statistics the gateway's
// backpressure logic consumes.
type BackendStats struct {
	// DecisionLatencyP99 is the worst current p99 decision latency across
	// sites, in virtual seconds; 0 when no site is slow now. Feeds the
	// laxity gate, so it must not outlive what it describes: the gate
	// withholds the very jobs whose decisions would correct it.
	DecisionLatencyP99 float64
	// ReachableSites counts sites that answered the stats poll.
	ReachableSites int
}

// HTTPBackend talks to a set of rtds-node control APIs, round-robining
// submissions and failing over to the next site when one is unreachable.
//
// Decisions come back through each node's decision journal (GET
// /jobs?since=): the backend keeps one cursor per node, so a read carries
// the decisions made since the last one and nothing else. It implements
// DecisionWatcher with one reader per node, which holds a long-poll open at
// that node only while the node owes a decision for a job forwarded through
// this backend; a node that owes nothing has no request in flight.
type HTTPBackend struct {
	nodes  []*backendNode
	client *http.Client
	wait   time.Duration // how long a watcher's long-poll may be held
	next   atomic.Int64
}

// backendNode is the backend's state for one site.
type backendNode struct {
	base string // site base URL, e.g. "http://127.0.0.1:8400"

	// reading is held across one read of the journal, a held long-poll
	// included: the tick and the watcher must never read one cursor at the
	// same time. The tick only TryLocks, so it never queues behind a
	// long-poll; the watcher that holds the lock delivers.
	reading sync.Mutex
	boot    string // the node process the cursor counts in (guarded by reading)
	cursor  int    // opaque position read up to in that process's log (guarded by reading)

	mu   sync.Mutex
	owed map[string]struct{} // forwarded here, not yet read back decided
	// submits holds, per Submit in flight at this node, the IDs that were
	// read back meanwhile: the job such a Submit returns may already be
	// decided and read, and must then not be waited for.
	submits windows[struct{}]
	owes    chan struct{} // capacity 1: wakes the watcher when the node comes to owe
	// What Stats reads: the latencies of the decisions read since its last
	// call, and their p99 at each of its last sustainTicks calls.
	unread []float64
	ticks  [sustainTicks]float64
	tick   int
}

const (
	// watchWait is the longest a long-poll is held; it stays under the nodes'
	// own cap (a second) and far under what a node's shutdown will wait.
	watchWait = 800 * time.Millisecond
	// watchBackoff paces a watcher's retries against an unreachable node.
	watchBackoff = 200 * time.Millisecond
	// sustainTicks is how many Stats calls in a row (reconcile ticks: a
	// second at the default period) must find a node slow before Stats says
	// so. All the gate can do is send a client away for a second or more,
	// the shortest Retry-After there is; on a cluster that was slow for less
	// the client comes back to one that has long recovered, with whatever
	// fell due meanwhile as one burst, which is the next slow spell.
	sustainTicks = 5
)

// NewHTTPBackend builds a backend over the given node control-API base
// URLs (scheme://host:port, no trailing slash).
func NewHTTPBackend(bases []string, timeout time.Duration) (*HTTPBackend, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("gateway: no backend nodes configured")
	}
	b := &HTTPBackend{client: &http.Client{Timeout: timeout}, wait: watchWait}
	if timeout > 0 {
		b.wait = min(watchWait, timeout/2) // a held request must not look like a dead node
	}
	for _, base := range bases {
		base = strings.TrimRight(strings.TrimSpace(base), "/")
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		b.nodes = append(b.nodes, &backendNode{
			base: base,
			owed: make(map[string]struct{}),
			owes: make(chan struct{}, 1),
		})
	}
	return b, nil
}

// Submit implements Backend: POST /submit on the next healthy site.
func (b *HTTPBackend) Submit(at, deadline float64, graph json.RawMessage) (string, error) {
	body, err := json.Marshal(map[string]any{"at": at, "deadline": deadline, "graph": graph})
	if err != nil {
		return "", err
	}
	var lastErr error
	for range b.nodes {
		nd := b.nodes[int(b.next.Add(1)-1)%len(b.nodes)]
		id, final, err := b.submitTo(nd, body)
		if err == nil {
			return id, nil
		}
		lastErr = err
		if final {
			return "", lastErr
		}
	}
	return "", fmt.Errorf("gateway: all %d sites failed, last: %w", len(b.nodes), lastErr)
}

// submitTo posts one submission to one site. final marks an error every
// site would agree on, so that failing over is pointless.
func (b *HTTPBackend) submitTo(nd *backendNode, body []byte) (id string, final bool, err error) {
	w := nd.beginSubmit()
	defer func() { nd.endSubmit(w, id) }()
	resp, err := b.client.Post(nd.base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return "", false, err
	}
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s/submit: %s: %s", nd.base, resp.Status, strings.TrimSpace(string(data)))
		// 400s are payload errors every site will agree on; only
		// availability errors (503 bootstrapping, timeouts) fail over.
		return "", resp.StatusCode == http.StatusBadRequest, err
	}
	var reply struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &reply); err != nil || reply.ID == "" {
		return "", false, fmt.Errorf("%s/submit: malformed reply %q", nd.base, data)
	}
	return reply.ID, false, nil
}

// beginSubmit marks a submission in flight at the node.
func (nd *backendNode) beginSubmit() *window[struct{}] {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.submits.open()
}

// endSubmit closes the submission's window. Unless the job's decision was
// read back while the submission was in flight, the node now owes it and
// the watcher is woken. Not earlier: a reader that waited at the node from
// the start of the submission would, once the decision is in, be left
// holding a request for nothing.
func (nd *backendNode) endSubmit(w *window[struct{}], id string) {
	nd.mu.Lock()
	_, decided := nd.submits.close(w, id)
	owes := id != "" && !decided
	if owes {
		nd.owed[id] = struct{}{}
	}
	nd.mu.Unlock()
	if owes {
		select {
		case nd.owes <- struct{}{}:
		default:
		}
	}
}

// owing reports whether the node owes a decision.
func (nd *backendNode) owing() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return len(nd.owed) > 0
}

// Decisions implements Backend: the decisions each site made since this
// backend last read its journal, merged (cluster job IDs carry an @site
// suffix, so there are no collisions). A site whose watcher holds a
// long-poll is skipped, since the watcher delivers what it reads; a site
// that is down contributes nothing; an error is returned only when no site
// answered.
func (b *HTTPBackend) Decisions() (map[string]BackendDecision, error) {
	out := make(map[string]BackendDecision)
	reached := 0
	var lastErr error
	for _, nd := range b.nodes {
		if !nd.reading.TryLock() {
			reached++
			continue
		}
		tail, err := b.readJournal(context.Background(), nd, 0)
		nd.reading.Unlock()
		if err != nil {
			lastErr = err
			continue
		}
		reached++
		maps.Copy(out, tail)
	}
	if reached == 0 {
		return nil, fmt.Errorf("gateway: no site answered /jobs: %w", lastErr)
	}
	return out, nil
}

// readJournal reads the node's decisions from the cursor on, holding the
// request at the node for up to wait while there are none, then advances
// the cursor and settles what the node still owes. Callers hold nd.reading.
func (b *HTTPBackend) readJournal(ctx context.Context, nd *backendNode, wait time.Duration) (map[string]BackendDecision, error) {
	reply, err := nodeapi.ReadJournal(ctx, b.client, nd.base, nd.cursor, nd.boot, wait)
	if err != nil {
		return nil, err
	}
	restarted := nd.boot != "" && reply.Boot != nd.boot
	// Only a read that continues a cursor is known to carry new decisions:
	// the first one, and the one after a node restart, start from 0 and
	// return history of any age.
	fresh := reply.Boot == nd.boot
	nd.boot, nd.cursor = reply.Boot, reply.Next
	out := make(map[string]BackendDecision, len(reply.Jobs))
	var latencies []float64
	for _, j := range reply.Jobs {
		d := BackendDecision{Outcome: j.OutcomeName, Latency: j.DecisionAt - j.Arrival}
		out[j.ID] = d
		if fresh && d.Decided() {
			latencies = append(latencies, d.Latency)
		}
	}

	nd.mu.Lock()
	defer nd.mu.Unlock()
	if restarted {
		// The jobs the old process owed died with it; waiting for them
		// would hold a request open at the new one for ever.
		clear(nd.owed)
	}
	nd.unread = append(nd.unread, latencies...)
	for id := range out {
		if _, ok := nd.owed[id]; ok {
			delete(nd.owed, id)
		} else {
			nd.submits.offer(id, struct{}{})
		}
	}
	return out, nil
}

// WatchDecisions implements DecisionWatcher: one reader per site.
func (b *HTTPBackend) WatchDecisions(deliver func(map[string]BackendDecision)) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, nd := range b.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.watch(ctx, nd, deliver)
		}()
	}
	return func() {
		cancel() // also aborts the long-polls in flight
		wg.Wait()
	}
}

// watch delivers one site's decisions for as long as the site owes any.
func (b *HTTPBackend) watch(ctx context.Context, nd *backendNode, deliver func(map[string]BackendDecision)) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-nd.owes:
		}
		for {
			nd.reading.Lock()
			if !nd.owing() { // checked under the lock: only readers settle
				nd.reading.Unlock()
				break
			}
			tail, err := b.readJournal(ctx, nd, b.wait)
			nd.reading.Unlock()
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				select {
				case <-ctx.Done():
					return
				case <-time.After(watchBackoff):
				}
				continue
			}
			if len(tail) > 0 {
				deliver(tail)
			}
		}
	}
}

// Stats implements Backend: the worst sustained p99 across reachable sites,
// from the decisions this backend reads in their journals (every decision a
// node makes is read within one reconcile tick, whoever submitted the job).
// Not a figure over the node's whole life, such as its /metrics latency
// histogram: a gate that keys on one stays shut after one slow spell, since
// it refuses the jobs whose quick decisions would dilute it. A site is
// reachable when its GET /healthz answers 200; nothing else is asked, since
// /metrics probes the node's execution context. Each call ends a tick.
func (b *HTTPBackend) Stats() (BackendStats, error) {
	var out BackendStats
	var lastErr error
	for _, nd := range b.nodes {
		if err := b.probe(nd.base + "/healthz"); err != nil {
			lastErr = err
			continue
		}
		out.ReachableSites++
		out.DecisionLatencyP99 = max(out.DecisionLatencyP99, nd.sustainedP99())
	}
	if out.ReachableSites == 0 {
		return out, fmt.Errorf("gateway: no site answered /healthz: %w", lastErr)
	}
	return out, nil
}

// sustainedP99 ends a tick: it files the p99 of the decisions read since
// the last call and returns the smallest p99 of the last sustainTicks ticks,
// which is 0 when one of them saw no decision or there were not that many
// yet. A gate shut on it reopens within a tick of the decisions stopping.
func (nd *backendNode) sustainedP99() float64 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	var s metrics.Sample
	for _, v := range nd.unread {
		s.Add(v)
	}
	nd.unread = nd.unread[:0]
	nd.ticks[nd.tick%sustainTicks] = s.Percentile(99)
	nd.tick++
	return slices.Min(nd.ticks[:])
}

// probe GETs u and reports an error unless it answers 200.
func (b *HTTPBackend) probe(u string) error {
	resp, err := b.client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) // lets the connection be reused
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", u, resp.Status)
	}
	return nil
}
