package wire

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/simnet"
)

// NetTransport implements simnet.Transport over TCP for a set of sites: one
// site per process in deployment (Listen, cmd/rtds-node), or whichever
// sites of a topology are attached to it in one process (ListenLocal) —
// every site for an in-process live cluster, or a share of them for one
// host among several. Each outbound directed link is its own connection
// carrying the framed codec of this package, including a link between two
// sites of the same transport, which loops back through the transport's own
// listener. It preserves the simnet semantics the protocol core was built
// against:
//
//   - only adjacent sites exchange messages, and each traversal costs the
//     topology's link delay (emulated in scaled wall time before the frame
//     is handed to the socket);
//   - each hosted site's handler and timers run serially on one goroutine —
//     the site's execution context — exactly like the DES event loop;
//   - an armed FaultPlan drops and jitters traversals at the socket layer
//     with the shared Injector, so the E12 fault scenarios run over real
//     sockets.
//
// Every wait is an entry in the process's simnet.Clock, shared with the
// process's other transports: protocol timers (After) and each outbound
// frame, queued at its due time by Send. So timers due at the same instant
// run in the order they were set, a hop costs its emulated delay plus about
// 10 µs, and a fired timer's cancel handle pins nothing but its id. The
// clock's dispatcher writes each link's due frames itself, with one writev
// (same-tick batching). A batch goes to the link's dialer goroutine instead
// when the connection is down or an earlier batch is still queued there:
// the dialer dials lazily and re-dials with exponential backoff, cut short
// when the peer dials in, so nodes may start in any order and survive peer
// restarts, and a dead neighbour never delays anyone else's timers. A batch
// that cannot be written because the connection broke mid-write is resent
// whole on the fresh connection — duplicates are possible across a
// reconnect and the protocol's handlers tolerate them, exactly as they
// tolerate retransmitted aborts.
type NetTransport struct {
	topo       *graph.Graph
	scale      time.Duration
	self       graph.NodeID // the one site a Listen transport hosts; -1 on ListenLocal's
	maxBackoff time.Duration
	seed       int64 // NetConfig.Seed
	stats      *simnet.Stats
	ln         net.Listener
	start      time.Time
	clock      *simnet.Clock

	mu       sync.Mutex
	injector atomic.Pointer[simnet.Injector]
	addrs    map[graph.NodeID]string // neighbour addresses: NetConfig.Peers, then SetPeers
	sites    []*hostedSite           // by site id, set by Attach; nil where the site is hosted elsewhere
	peers    map[edge]*peerConn      // outbound links of the hosted sites, built by Start
	conns    map[net.Conn]struct{}   // live accepted inbound connections
	started  bool
	closed   bool

	// pending counts what is in flight: a frame from Send until its handler
	// returns or its link drops it, a timer until it runs or is cancelled.
	// A frame is counted by its sender and settled by its receiver, so only
	// the sum over every transport of a cluster is meaningful (see WaitIdle).
	pending atomic.Int64
	wg      sync.WaitGroup

	// enc amortizes outbound frame allocations (see EncodeArena).
	enc EncodeArena
}

// hostedSite is one site this transport runs: its handler and the inbox its
// execution goroutine drains.
type hostedSite struct {
	handler simnet.Handler
	inbox   *simnet.FIFO[func()]
}

// edge is a directed link.
type edge struct{ from, to graph.NodeID }

// NetConfig configures a NetTransport.
type NetConfig struct {
	// Self is the site this process runs.
	Self graph.NodeID
	// Topo is the shared network topology; every process must construct the
	// same one (the binaries generate it from a common seed).
	Topo *graph.Graph
	// Listen is the TCP address for inbound protocol traffic.
	Listen string
	// Peers maps neighbor sites to their protocol addresses. Only
	// Self's topology neighbors are consulted.
	Peers map[graph.NodeID]string
	// Scale is the wall-clock duration of one virtual time unit
	// (default 1ms).
	Scale time.Duration
	// MaxBackoff caps the reconnect backoff (default 2s).
	MaxBackoff time.Duration
	// Seed drives the reconnect-backoff jitter. Nodes restarting at the
	// same instant would otherwise re-dial in lockstep and collide round
	// after round; each peer connection jitters its sleeps from a source
	// derived from this seed and the peer id, so the desynchronization is
	// deterministic under a fixed test seed. 0 derives the seed from Self.
	Seed int64
}

// Listen opens the transport of the one site cfg.Self, so the actual address
// (needed when Listen was ":0") is known before any peer map is final, and
// acquires the process's simnet.Clock. Call SetPeers and then Start to begin
// exchanging traffic; finish with Close.
func Listen(cfg NetConfig) (*NetTransport, error) {
	if cfg.Topo != nil && (int(cfg.Self) < 0 || int(cfg.Self) >= cfg.Topo.Len()) {
		return nil, fmt.Errorf("wire: self %d out of range [0,%d)", cfg.Self, cfg.Topo.Len())
	}
	return listen(cfg)
}

// ListenLocal opens a transport on a loopback port that hosts whichever
// sites of topo are attached to it, with scale the wall-clock duration of
// one virtual time unit: the in-process live cluster attaches every site.
// A link between two attached sites loops back through the transport's own
// listener; a link to a site attached elsewhere needs SetPeers before Start.
func ListenLocal(topo *graph.Graph, scale time.Duration) (*NetTransport, error) {
	return listen(NetConfig{Self: -1, Topo: topo, Listen: "127.0.0.1:0", Scale: scale})
}

// listen opens the transport cfg describes; a negative cfg.Self lets any
// site be attached.
func listen(cfg NetConfig) (*NetTransport, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("wire: NetConfig.Topo is required")
	}
	if cfg.Scale <= 0 {
		cfg.Scale = time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", cfg.Listen, err)
	}
	clock, err := simnet.AcquireClock()
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("wire: %w", err)
	}
	t := &NetTransport{
		topo:       cfg.Topo,
		scale:      cfg.Scale,
		self:       cfg.Self,
		maxBackoff: cfg.MaxBackoff,
		seed:       cfg.Seed,
		stats:      simnet.NewStats(),
		ln:         ln,
		clock:      clock,
		addrs:      make(map[graph.NodeID]string),
		sites:      make([]*hostedSite, cfg.Topo.Len()),
		peers:      make(map[edge]*peerConn),
		conns:      make(map[net.Conn]struct{}),
	}
	maps.Copy(t.addrs, cfg.Peers)
	return t, nil
}

// site returns the state of hosted site id, or nil when id is hosted
// elsewhere.
func (t *NetTransport) site(id graph.NodeID) *hostedSite {
	if int(id) < 0 || int(id) >= len(t.sites) {
		return nil
	}
	return t.sites[id]
}

// Addr reports the transport's bound protocol address.
func (t *NetTransport) Addr() string { return t.ln.Addr().String() }

// SetPeers installs (or overrides) neighbor protocol addresses. Must be
// called before Start for every topology neighbor hosted elsewhere that had
// no address yet.
func (t *NetTransport) SetPeers(peers map[graph.NodeID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		panic("wire: SetPeers after Start")
	}
	maps.Copy(t.addrs, peers)
}

// Attach implements simnet.Transport: the site becomes hosted here. A
// Listen transport hosts its own site only.
func (t *NetTransport) Attach(id graph.NodeID, h simnet.Handler) {
	if int(id) < 0 || int(id) >= len(t.sites) || (t.self >= 0 && id != t.self) {
		panic(fmt.Sprintf("wire: Attach(%d) on a transport that cannot host it", id))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		panic("wire: Attach after Start")
	}
	if t.sites[id] != nil {
		panic(fmt.Sprintf("wire: handler for node %d attached twice", id))
	}
	t.sites[id] = &hostedSite{handler: h, inbox: simnet.NewFIFO[func()]()}
}

// Start builds the hosted sites' outbound links and launches each site's
// execution-context goroutine, the accept loop and the per-link dialers,
// and starts the virtual clock.
func (t *NetTransport) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		panic("wire: Start called twice")
	}
	if t.closed {
		panic("wire: Start after Close")
	}
	if t.self >= 0 && t.sites[t.self] == nil {
		panic("wire: Start without an attached handler")
	}
	t.started = true
	t.start = time.Now()
	for id, s := range t.sites {
		if s == nil {
			continue
		}
		from := graph.NodeID(id)
		seed := t.seed
		if seed == 0 {
			seed = int64(from) + 1
		}
		for _, e := range t.topo.Neighbors(from) {
			addr := t.addrs[e.To]
			if t.sites[e.To] != nil {
				addr = t.Addr()
			}
			t.peers[edge{from, e.To}] = &peerConn{
				owner:      t,
				from:       from,
				to:         e.To,
				delay:      e.Delay,
				addr:       addr,
				maxBackoff: t.maxBackoff,
				rng:        rand.New(rand.NewSource(seed*1000003 + int64(e.To))),
				wake:       make(chan struct{}, 1),
				retry:      make(chan struct{}, 1),
				done:       make(chan struct{}),
			}
		}
		// Execution context: every handler invocation and timer of the
		// site runs on this goroutine.
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for {
				fn, ok := s.inbox.Pop()
				if !ok {
					return
				}
				fn()
				t.pending.Add(-1)
			}
		}()
	}
	// Accept loop.
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := t.ln.Accept()
			if err != nil {
				return // listener closed
			}
			t.mu.Lock()
			if t.closed {
				t.mu.Unlock()
				conn.Close()
				return
			}
			t.conns[conn] = struct{}{}
			t.mu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.readLoop(conn)
				// Prune the entry once the reader is done, so flapping
				// peers do not grow the map for the transport's lifetime.
				t.mu.Lock()
				delete(t.conns, conn)
				t.mu.Unlock()
			}()
		}
	}()
	// Per-link dialers.
	for _, p := range t.peers {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			p.dialLoop()
		}()
	}
}

// readLoop decodes frames off one inbound connection and hands them to the
// dialed site's execution context. The first frame must be a hello that
// names an admissible link (see admit); a connection that names another or
// talks garbage is dropped.
func (t *NetTransport) readLoop(conn net.Conn) {
	defer conn.Close()
	fr := NewFrameReader(conn)
	var to *hostedSite
	var from graph.NodeID
	for {
		block, err := fr.Next()
		if err != nil {
			return
		}
		if block[0] != Version {
			return
		}
		if Kind(block[1]) == kindHello {
			if from, to = t.admit(block[2:]); to == nil {
				return
			}
			continue
		}
		if to == nil {
			return // protocol frame before hello
		}
		p, err := decodePayload(Kind(block[1]), block[2:])
		if err != nil {
			return
		}
		h, src := to.handler, from
		to.inbox.Push(func() { h(src, p) })
	}
}

// admit reads a hello body — the dialing site, then the dialed one, and
// nothing else — and returns both when the link is admissible: the dialed
// site is hosted here and the dialing site is its topology neighbour.
func (t *NetTransport) admit(body []byte) (graph.NodeID, *hostedSite) {
	from, k := binary.Varint(body)
	if k <= 0 {
		return 0, nil
	}
	to, n := binary.Varint(body[k:])
	if n <= 0 || k+n != len(body) {
		return 0, nil
	}
	if from < 0 || from >= int64(t.topo.Len()) {
		return 0, nil
	}
	s := t.site(graph.NodeID(to))
	if s == nil {
		return 0, nil
	}
	if _, err := t.topo.EdgeDelay(graph.NodeID(from), graph.NodeID(to)); err != nil {
		return 0, nil
	}
	// The neighbour listens again (a restarted process dials before it is
	// dialed): the reverse link's dialer stops backing off and dials now.
	if p := t.peers[edge{graph.NodeID(to), graph.NodeID(from)}]; p != nil {
		select {
		case p.retry <- struct{}{}:
		default:
		}
	}
	return graph.NodeID(from), s
}

// Send implements simnet.Transport: encode, apply the fault injector, then
// queue the frame on the clock for when the link delay has passed. On a
// closed transport the message is silently dropped: a handler still running
// when Close is called must be able to finish its send cascade without
// panicking the protocol layer, whose Send errors are wiring bugs.
func (t *NetTransport) Send(from, to graph.NodeID, p simnet.Payload) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	if !t.started {
		t.mu.Unlock()
		return fmt.Errorf("wire: transport not running")
	}
	t.mu.Unlock()
	peer := t.peers[edge{from, to}]
	if peer == nil {
		if t.site(from) == nil {
			return fmt.Errorf("wire: send from %d on a transport that does not host it", from)
		}
		return fmt.Errorf("wire: send %s from %d to non-neighbor %d", p.Kind(), from, to)
	}
	if peer.addr == "" {
		return fmt.Errorf("wire: no address for neighbor %d", to)
	}
	delay := peer.delay
	if inj := t.injector.Load(); inj != nil {
		var dropped bool
		if delay, dropped = inj.Perturb(from, to, t.Now(), delay); dropped {
			t.stats.Drop()
			return nil
		}
	}
	frame, err := t.enc.Encode(p)
	if err != nil {
		return err
	}
	t.stats.RecordEdge(from, to, p)
	t.pending.Add(1)
	t.clock.PostTo(peer, t.wall(delay), frame) //lint:allow hotalloc -- PostTo's inlined clock entry: one per wall-clock send, held until the frame comes due
	return nil
}

// After implements simnet.Transport: fn runs on the site's execution
// context after the scaled delay. The cancel handle holds the timer's id,
// not fn.
func (t *NetTransport) After(id graph.NodeID, delay float64, fn func()) simnet.CancelFunc {
	s := t.site(id)
	if s == nil {
		panic(fmt.Sprintf("wire: After(%d) on a transport that does not host it", id))
	}
	t.pending.Add(1)
	ev := t.clock.After(s.inbox, t.wall(delay), fn)
	return func() bool {
		cancelled, queued := t.clock.Cancel(ev)
		if cancelled && !queued {
			t.pending.Add(-1) // it never reaches the inbox, whose loop would settle it
		}
		return cancelled
	}
}

// WaitIdle blocks until nothing is in flight on the transport — see the
// package function — or the timeout elapses.
func (t *NetTransport) WaitIdle(timeout time.Duration) bool { return WaitIdle(timeout, t) }

// WaitIdle blocks until nothing is in flight across trs — no frame between
// Send and the return of its handler, no timer still to run — or the
// timeout elapses, and reports whether that quiescence was reached. A frame
// is counted by the transport that sent it and settled by the one that
// handled it, so pass every transport of the cluster.
func WaitIdle(timeout time.Duration, trs ...*NetTransport) bool {
	deadline := time.Now().Add(timeout)
	stable := 0
	for time.Now().Before(deadline) {
		var n int64
		for _, t := range trs {
			n += t.pending.Load()
		}
		if n != 0 {
			stable = 0
		} else if stable++; stable >= 3 {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// wall converts a virtual delay to wall-clock time.
func (t *NetTransport) wall(d float64) time.Duration { return time.Duration(d * float64(t.scale)) }

// Now implements simnet.Transport: elapsed wall time in virtual units.
func (t *NetTransport) Now() float64 {
	return float64(time.Since(t.start)) / float64(t.scale)
}

// NowOf implements simnet.Transport: the process has one wall clock.
func (t *NetTransport) NowOf(graph.NodeID) float64 { return t.Now() }

// Stats implements simnet.Transport.
func (t *NetTransport) Stats() *simnet.Stats { return t.stats }

// SetFaults implements simnet.Transport: loss and jitter are applied to
// every subsequent traversal at the socket layer.
func (t *NetTransport) SetFaults(plan simnet.FaultPlan, epoch float64) {
	t.injector.Store(simnet.NewInjector(plan, epoch))
}

// Close shuts the transport down: the listener and all connections are
// closed, every goroutine is joined and the process clock is released.
// Idempotent and safe to call concurrently; messages still in flight are
// dropped (real networks offer nothing better).
func (t *NetTransport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	//lint:allow mapiter -- snapshot of live TCP conns taken only to close them; close order is unobservable and net.Conn keys are unorderable
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	t.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, p := range t.peers {
		p.close()
	}
	for _, s := range t.sites {
		if s != nil {
			s.inbox.Close()
		}
	}
	t.wg.Wait()
	t.clock.Release()
}

var _ simnet.Transport = (*NetTransport)(nil)

// ---------------------------------------------------------------------------
// Outbound links

// peerConn owns the outbound connection of one directed link. It is the
// simnet.Batcher of the link's frames: the clock's dispatcher adds the
// frames that come due at one wake and flushes them with one vectored write
// (same-tick batching). Frames come due in (due time, send sequence) order,
// so equal-delay frames keep their send order — per-link FIFO; only
// differing delays (jitter) can reorder a link, which is the documented
// fault semantics.
//
// The dispatcher writes inline only while the connection is up and nothing
// is queued ahead: otherwise it hands the batch to the link's dialer
// goroutine, which dials with backoff and writes the backlog in order. An
// inline write is bounded by inlineWriteLimit, so a peer that stops reading
// costs the dispatcher at most that once; its connection is then dropped
// and the batch handed over.
type peerConn struct {
	owner      *NetTransport
	from, to   graph.NodeID // the link; the hello names both
	delay      float64      // the link's delay in virtual units
	addr       string
	maxBackoff time.Duration
	rng        *rand.Rand // backoff jitter; only the dialer draws

	mu      sync.Mutex
	conn    net.Conn
	backlog []handedFrame // frames handed to the dialer, in order
	busy    bool          // the dialer holds frames not yet written; later batches queue behind them
	closed  bool
	wake    chan struct{} // capacity 1: the dialer has a backlog
	retry   chan struct{} // capacity 1: the peer dialed in, so a backoff wait ends early
	done    chan struct{} // closed by close(); ends a wait or a reconnect backoff

	// The dispatcher's own: the frames due at this wake and writev scratch.
	batch   [][]byte
	scratch net.Buffers
}

// The protocol tolerates loss (enroll windows, phase timeouts and lock
// leases treat a silent peer as lost traffic), so frames for a peer that
// stays down are eventually dropped instead of accumulating until OOM:
// the backlog is capped, and frames handed over more than staleAfter
// before the dialer can write them are discarded. Both count as dropped
// traversals in the transport statistics.
const (
	maxQueuedFrames  = 1 << 16
	staleAfter       = 30 * time.Second
	inlineWriteLimit = time.Millisecond
)

type handedFrame struct {
	at    time.Time
	frame []byte
}

// Add implements simnet.Batcher.
func (p *peerConn) Add(frame []byte) bool {
	p.batch = append(p.batch, frame)
	return len(p.batch) == 1
}

// Flush implements simnet.Batcher: write the batch inline, or else hand it
// to the dialer.
func (p *peerConn) Flush() {
	if !p.writeInline() {
		p.handOff()
	}
	clear(p.batch)
	p.batch = p.batch[:0]
}

// writeInline writes the batch if the connection is up and nothing is
// queued ahead of it, and reports whether it did. A failed write, or one
// that outlasts inlineWriteLimit, drops the connection; the batch then goes
// to the dialer whole, to be resent on a fresh one.
func (p *peerConn) writeInline() bool {
	p.mu.Lock()
	conn := p.conn
	ok := conn != nil && !p.busy && !p.closed
	p.mu.Unlock()
	if !ok {
		return false
	}
	conn.SetWriteDeadline(time.Now().Add(inlineWriteLimit))
	if err := WriteBatch(conn, &p.scratch, p.batch); err != nil {
		conn.Close()
		p.setConn(nil)
		return false
	}
	conn.SetWriteDeadline(time.Time{})
	return true
}

// handOff queues the batch for the dialer and wakes it. A closed peer
// discards the batch, and a full backlog drops what does not fit.
func (p *peerConn) handOff() {
	dropped := 0
	p.mu.Lock()
	if !p.closed {
		now := time.Now()
		for _, f := range p.batch {
			if len(p.backlog) >= maxQueuedFrames {
				dropped++
				continue
			}
			p.backlog = append(p.backlog, handedFrame{at: now, frame: f})
		}
		p.busy = true
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	p.mu.Unlock()
	p.drop(dropped)
}

// drop discards n of the link's frames: each counts as a dropped traversal
// and is no longer in flight.
func (p *peerConn) drop(n int) {
	p.owner.pending.Add(int64(-n))
	for ; n > 0; n-- {
		p.owner.stats.Drop()
	}
}

func (p *peerConn) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.conn != nil {
		p.conn.Close()
	}
	close(p.done)
}

// dialLoop is the peer's dialer goroutine: it takes the backlog and writes
// it in order, dialing with backoff as needed, until the backlog is empty;
// then it hands the connection back to the dispatcher's inline writes and
// waits for the next hand-off. Frames that waited longer than staleAfter
// are dropped. The batch and writev scratch slices are reused.
func (p *peerConn) dialLoop() {
	var batch [][]byte
	var scratch net.Buffers
	for {
		p.mu.Lock()
		taken := p.backlog
		p.backlog, p.busy = nil, len(taken) > 0
		p.mu.Unlock()
		if len(taken) == 0 {
			select {
			case <-p.wake:
				continue
			case <-p.done:
				return
			}
		}
		now := time.Now()
		batch = batch[:0]
		for _, f := range taken {
			if now.Sub(f.at) > staleAfter {
				p.drop(1) // peer was down past any useful delivery window
				continue
			}
			batch = append(batch, f.frame)
		}
		if len(batch) > 0 {
			p.write(batch, &scratch)
		}
		clear(batch)
	}
}

// write delivers one batch of frames (a single writev), dialing (with
// backoff) as needed and retrying on a fresh connection after a broken
// write. It gives up only when the peer is closed. Backoff grows on EVERY
// failure — dial refused, hello write failed, batch write failed — and
// resets only after a successful batch write, so a peer that accepts
// connections and immediately resets them cannot drive a zero-sleep
// reconnect spin. Each sleep is jittered from the peer's seeded source (see
// NetConfig.Seed) so simultaneously restarted nodes do not re-dial in
// lockstep, and ends early when the peer dials in. WriteBatch consumes
// scratch, never batch, so each retry resends the identical frames — the
// peer may see duplicates, which the protocol tolerates.
func (p *peerConn) write(batch [][]byte, scratch *net.Buffers) {
	backoff := 50 * time.Millisecond
	fail := func() bool { // sleep and grow; reports whether the peer closed
		sleep, next := nextBackoff(backoff, p.maxBackoff, p.rng)
		if p.sleepClosed(sleep) {
			return true
		}
		backoff = next
		return false
	}
	for {
		p.mu.Lock()
		closed := p.closed
		conn := p.conn
		p.mu.Unlock()
		if closed {
			return
		}
		if conn == nil {
			c, err := net.Dial("tcp", p.addr)
			if err != nil {
				if fail() {
					return
				}
				continue
			}
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			// Name the link before any protocol frame.
			hello := helloFrame(p.from, p.to)
			if _, err := c.Write(hello); err != nil {
				c.Close()
				if fail() {
					return
				}
				continue
			}
			conn = c
			p.setConn(c)
		}
		if err := WriteBatch(conn, scratch, batch); err == nil {
			return
		}
		conn.Close()
		p.setConn(nil)
		if fail() {
			return
		}
		// Retry the whole batch on a fresh connection: the peer may see
		// duplicate frames, which the protocol tolerates.
	}
}

func (p *peerConn) setConn(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed && c != nil {
		c.Close()
		return
	}
	p.conn = c
}

// nextBackoff computes one jittered reconnect sleep and the grown next
// backoff level: the sleep is drawn uniformly from [cur/2, cur), so two
// peers at the same level desynchronize while keeping the exponential
// envelope; the level doubles up to max.
func nextBackoff(cur, max time.Duration, rng *rand.Rand) (sleep, next time.Duration) {
	half := int64(cur) / 2
	sleep = time.Duration(half + rng.Int63n(half+1))
	next = cur * 2
	if next > max {
		next = max
	}
	return sleep, next
}

// sleepClosed sleeps for d, or less if the peer dials in, and reports
// whether the peer was closed meanwhile (so backoff waits honor Close
// promptly).
func (p *peerConn) sleepClosed(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return false
	case <-p.retry:
		return false
	case <-p.done:
		return true
	}
}

// helloFrame names a link: the dialing site, then the dialed one.
func helloFrame(from, to graph.NodeID) []byte {
	e := enc{}
	e.b = append(e.b, 0, 0, 0, 0)
	e.u8(Version)
	e.kind(kindHello)
	e.varint(int64(from))
	e.varint(int64(to))
	n := len(e.b) - 4
	binary.LittleEndian.PutUint32(e.b[:4], uint32(n))
	return e.b
}
