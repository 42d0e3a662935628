package wire

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/simnet"
)

// NetTransport implements simnet.Transport over TCP: one site per process,
// one transport per site, per-peer connections carrying the framed codec of
// this package. It preserves the simnet semantics the protocol core was
// built against:
//
//   - only adjacent sites exchange messages, and each traversal costs the
//     topology's link delay (emulated in scaled wall time before the frame
//     is handed to the socket);
//   - the attached handler runs serially on one goroutine — the site's
//     execution context — exactly like the DES event loop and the live
//     transport's per-site goroutine;
//   - an armed FaultPlan drops and jitters traversals at the socket layer
//     with the shared Injector, so the E12 fault scenarios run over real
//     sockets.
//
// Every wait is an entry in the process's simnet.Clock, shared with the
// process's other transports: protocol timers (After) and each outbound
// frame, queued at its due time by Send. So timers due at the same instant
// run in the order they were set, a hop costs its emulated delay plus about
// 10 µs, and a fired timer's cancel handle pins nothing but its id. The
// clock's dispatcher writes each peer's due frames itself, with one writev
// (same-tick batching). A batch goes to the peer's dialer goroutine instead
// when the connection is down or an earlier batch is still queued there:
// the dialer dials lazily and re-dials with exponential backoff, so nodes
// may start in any order and survive peer restarts, and a dead neighbour
// never delays anyone else's timers. A batch that cannot be written because
// the connection broke mid-write is resent whole on the fresh connection —
// duplicates are possible across a reconnect and the protocol's handlers
// tolerate them, exactly as they tolerate retransmitted aborts.
type NetTransport struct {
	self  graph.NodeID
	topo  *graph.Graph
	scale time.Duration
	stats *simnet.Stats
	ln    net.Listener
	start time.Time
	clock *simnet.Clock

	mu       sync.Mutex
	handler  simnet.Handler
	injector atomic.Pointer[simnet.Injector]
	peers    map[graph.NodeID]*peerConn
	conns    map[net.Conn]struct{} // live accepted inbound connections
	started  bool
	closed   bool

	inbox *simnet.FIFO[func()]
	wg    sync.WaitGroup

	// enc amortizes outbound frame allocations (see EncodeArena).
	enc EncodeArena
}

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

// Listen opens the transport's listener so the actual address (needed when
// Listen was ":0") is known before any peer map is final, and acquires the
// process's simnet.Clock. Call SetPeers and then Start to begin exchanging
// traffic; finish with Close.
func Listen(cfg NetConfig) (*NetTransport, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("wire: NetConfig.Topo is required")
	}
	if int(cfg.Self) < 0 || int(cfg.Self) >= cfg.Topo.Len() {
		return nil, fmt.Errorf("wire: self %d out of range [0,%d)", cfg.Self, cfg.Topo.Len())
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
		self:  cfg.Self,
		topo:  cfg.Topo,
		scale: cfg.Scale,
		stats: simnet.NewStats(),
		ln:    ln,
		clock: clock,
		peers: make(map[graph.NodeID]*peerConn),
		conns: make(map[net.Conn]struct{}),
		inbox: simnet.NewFIFO[func()](),
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(cfg.Self) + 1
	}
	for _, e := range cfg.Topo.Neighbors(cfg.Self) {
		t.peers[e.To] = &peerConn{
			hello:      cfg.Self,
			addr:       cfg.Peers[e.To],
			maxBackoff: cfg.MaxBackoff,
			stats:      t.stats,
			rng:        rand.New(rand.NewSource(seed*1000003 + int64(e.To))),
			wake:       make(chan struct{}, 1),
			done:       make(chan struct{}),
		}
	}
	return t, nil
}

// Addr reports the transport's bound protocol address.
func (t *NetTransport) Addr() string { return t.ln.Addr().String() }

// SetPeers installs (or overrides) neighbor protocol addresses. Must be
// called before Start for every topology neighbor that had no address in
// the NetConfig.
func (t *NetTransport) SetPeers(peers map[graph.NodeID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		panic("wire: SetPeers after Start")
	}
	for id, addr := range peers {
		if p, ok := t.peers[id]; ok {
			p.addr = addr
		}
	}
}

// Attach implements simnet.Transport. Only the transport's own site can be
// attached: every other site lives in another process.
func (t *NetTransport) Attach(id graph.NodeID, h simnet.Handler) {
	if id != t.self {
		panic(fmt.Sprintf("wire: Attach(%d) on the transport of site %d", id, t.self))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		panic("wire: Attach after Start")
	}
	if t.handler != nil {
		panic(fmt.Sprintf("wire: handler for node %d attached twice", id))
	}
	t.handler = h
}

// Start launches the execution-context goroutine, the accept loop and the
// per-peer dialers, and starts the virtual clock.
func (t *NetTransport) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		panic("wire: Start called twice")
	}
	if t.closed {
		panic("wire: Start after Close")
	}
	if t.handler == nil {
		panic("wire: Start without an attached handler")
	}
	t.started = true
	t.start = time.Now()
	// Execution context: every handler invocation and timer runs here.
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			fn, ok := t.inbox.Pop()
			if !ok {
				return
			}
			fn()
		}
	}()
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
	// Per-peer dialers.
	for _, p := range t.peers {
		p := p
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			p.dialLoop()
		}()
	}
}

// readLoop decodes frames off one inbound connection and hands them to the
// site's execution context. The first frame must be a hello identifying the
// dialing site; a connection that talks garbage is dropped.
func (t *NetTransport) readLoop(conn net.Conn) {
	defer conn.Close()
	fr := NewFrameReader(conn)
	from := graph.NodeID(-1)
	for {
		block, err := fr.Next()
		if err != nil {
			return
		}
		if block[0] != Version {
			return
		}
		if Kind(block[1]) == kindHello {
			id, k := binary.Varint(block[2:])
			if k <= 0 || int(id) < 0 || int(id) >= t.topo.Len() {
				return
			}
			from = graph.NodeID(id)
			continue
		}
		if from < 0 {
			return // protocol frame before hello
		}
		p, err := decodePayload(Kind(block[1]), block[2:])
		if err != nil {
			return
		}
		src := from
		t.inbox.Push(func() { t.handler(src, p) })
	}
}

// Send implements simnet.Transport: encode, apply the fault injector, then
// queue the frame on the clock for when the link delay has passed. On a
// closed transport the message is silently dropped, mirroring the live
// transport's drain semantics.
func (t *NetTransport) Send(from, to graph.NodeID, p simnet.Payload) error {
	if from != t.self {
		return fmt.Errorf("wire: send from %d on the transport of site %d", from, t.self)
	}
	delay, err := t.topo.EdgeDelay(from, to)
	if err != nil {
		return fmt.Errorf("wire: send %s from %d to non-neighbor %d", p.Kind(), from, to)
	}
	peer := t.peers[to]
	if peer == nil || peer.addr == "" {
		return fmt.Errorf("wire: no address for neighbor %d", to)
	}
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
	t.stats.Record(p)
	t.clock.PostTo(peer, t.wall(delay), frame)
	return nil
}

// After implements simnet.Transport: fn runs on the site's execution
// context after the scaled delay. The cancel handle holds the timer's id,
// not fn.
func (t *NetTransport) After(id graph.NodeID, delay float64, fn func()) simnet.CancelFunc {
	if id != t.self {
		panic(fmt.Sprintf("wire: After(%d) on the transport of site %d", id, t.self))
	}
	c := t.clock
	ev := c.After(t.inbox, t.wall(delay), fn)
	return func() bool {
		cancelled, _ := c.Cancel(ev)
		return cancelled
	}
}

// wall converts a virtual delay to wall-clock time.
func (t *NetTransport) wall(d float64) time.Duration { return time.Duration(d * float64(t.scale)) }

// Now implements simnet.Transport: elapsed wall time in virtual units.
func (t *NetTransport) Now() float64 {
	return float64(time.Since(t.start)) / float64(t.scale)
}

// NowOf implements simnet.Transport: the process has one wall clock.
func (t *NetTransport) NowOf(graph.NodeID) float64 { return t.Now() }

// Topology implements simnet.Transport.
func (t *NetTransport) Topology() *graph.Graph { return t.topo }

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
	t.inbox.Close()
	t.wg.Wait()
	t.clock.Release()
}

var _ simnet.Transport = (*NetTransport)(nil)

// ---------------------------------------------------------------------------
// Outbound peers

// peerConn owns the outbound connection to one neighbor. It is the
// simnet.Batcher of the neighbor's frames: the clock's dispatcher adds the
// frames that come due at one wake and flushes them with one vectored write
// (same-tick batching). Frames come due in (due time, send sequence) order,
// so equal-delay frames keep their send order — per-link FIFO, like Live's
// links; only differing delays (jitter) can reorder a link, which is the
// documented fault semantics.
//
// The dispatcher writes inline only while the connection is up and nothing
// is queued ahead: otherwise it hands the batch to the peer's dialer
// goroutine, which dials with backoff and writes the backlog in order. An
// inline write is bounded by inlineWriteLimit, so a peer that stops reading
// costs the dispatcher at most that once; its connection is then dropped
// and the batch handed over.
type peerConn struct {
	hello      graph.NodeID // the owning transport's site, sent as the hello
	addr       string
	maxBackoff time.Duration
	stats      *simnet.Stats
	rng        *rand.Rand // backoff jitter; only the dialer draws

	mu      sync.Mutex
	conn    net.Conn
	backlog []handedFrame // frames handed to the dialer, in order
	busy    bool          // the dialer holds frames not yet written; later batches queue behind them
	closed  bool
	wake    chan struct{} // capacity 1: the dialer has a backlog
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
func (p *peerConn) Add(item any) bool {
	p.batch = append(p.batch, item.([]byte))
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

func (p *peerConn) drop(n int) {
	for ; n > 0; n-- {
		p.stats.Drop()
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
// lockstep. WriteBatch consumes scratch, never batch, so each retry resends
// the identical frames — the peer may see duplicates, which the protocol
// tolerates.
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
			// Identify ourselves before any protocol frame.
			hello := helloFrame(p.hello)
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

// sleepClosed sleeps for d and reports whether the peer was closed
// meanwhile (so backoff waits honor Close promptly).
func (p *peerConn) sleepClosed(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return false
	case <-p.done:
		return true
	}
}

func helloFrame(self graph.NodeID) []byte {
	e := enc{}
	e.b = append(e.b, 0, 0, 0, 0)
	e.u8(Version)
	e.kind(kindHello)
	e.varint(int64(self))
	n := len(e.b) - 4
	binary.LittleEndian.PutUint32(e.b[:4], uint32(n))
	return e.b
}
