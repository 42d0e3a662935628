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
// Outbound frames that become due at the same moment are coalesced into a
// single write per peer (same-tick batching); connections are established
// lazily and re-dialed with exponential backoff, so nodes may start in any
// order and survive peer restarts. A frame that cannot be written because
// the connection broke mid-batch is retried on the fresh connection —
// duplicates are possible across a reconnect and the protocol's handlers
// tolerate them, exactly as they tolerate retransmitted aborts.
type NetTransport struct {
	self  graph.NodeID
	topo  *graph.Graph
	scale time.Duration
	stats *simnet.Stats
	ln    net.Listener
	start time.Time

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
// Listen was ":0") is known before any peer map is final. Call SetPeers and
// then Start to begin exchanging traffic; finish with Close.
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
	t := &NetTransport{
		self:  cfg.Self,
		topo:  cfg.Topo,
		scale: cfg.Scale,
		stats: simnet.NewStats(),
		ln:    ln,
		peers: make(map[graph.NodeID]*peerConn),
		conns: make(map[net.Conn]struct{}),
		inbox: simnet.NewFIFO[func()](),
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(cfg.Self) + 1
	}
	for _, e := range cfg.Topo.Neighbors(cfg.Self) {
		p := &peerConn{
			to:         e.To,
			hello:      cfg.Self,
			addr:       cfg.Peers[e.To],
			maxBackoff: cfg.MaxBackoff,
			stats:      t.stats,
			rng:        rand.New(rand.NewSource(seed*1000003 + int64(e.To))),
		}
		p.init()
		t.peers[e.To] = p
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
// per-peer writers, and starts the virtual clock.
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
	// Per-peer writers.
	for _, p := range t.peers {
		p := p
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			p.writeLoop()
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

// Send implements simnet.Transport: encode, apply the fault injector,
// emulate the link delay, then queue the frame for the peer's writer. On a
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
	peer.enqueue(time.Now().Add(time.Duration(delay*float64(t.scale))), frame)
	return nil
}

// After implements simnet.Transport: fn runs on the site's execution
// context after the scaled delay.
func (t *NetTransport) After(id graph.NodeID, delay float64, fn func()) simnet.CancelFunc {
	if id != t.self {
		panic(fmt.Sprintf("wire: After(%d) on the transport of site %d", id, t.self))
	}
	var cancelled atomic.Bool
	// Always a real timer, even for zero delays: the protocol's zero-delay
	// recheck hops rely on same-deadline timers (a completion racing a slot
	// start) firing in creation order, which the runtime's timer queue
	// provides and a synchronous fast path would defeat.
	timer := time.AfterFunc(time.Duration(delay*float64(t.scale)), func() {
		t.inbox.Push(func() {
			if !cancelled.Load() {
				fn()
			}
		})
	})
	return func() bool {
		was := cancelled.Swap(true)
		timer.Stop()
		return !was
	}
}

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
// closed and every goroutine is joined. Idempotent and safe to call
// concurrently; messages still in flight are dropped (real networks offer
// nothing better).
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
}

var _ simnet.Transport = (*NetTransport)(nil)

// ---------------------------------------------------------------------------
// Outbound peers

// peerConn owns the outbound connection to one neighbor: a delay queue of
// frames ordered by (due time, send sequence), flushed by one writer
// goroutine that waits for the earliest due frame, coalesces everything due
// at that moment into a single write (same-tick batching) and re-dials with
// exponential backoff. Equal-delay frames keep their send order — per-link
// FIFO, like the live transport's link goroutines; only differing delays
// (jitter) can reorder a link, which is the documented fault semantics.
type peerConn struct {
	to         graph.NodeID
	hello      graph.NodeID // the owning transport's site, sent as the hello
	addr       string
	maxBackoff time.Duration
	stats      *simnet.Stats
	rng        *rand.Rand // backoff jitter; only the writer goroutine draws

	mu     sync.Mutex
	queue  frameHeap
	seq    uint64
	closed bool
	conn   net.Conn
	wake   chan struct{} // 1-buffered nudge: new head may be earlier
	done   chan struct{} // closed by close()
}

// The protocol tolerates loss (enroll windows, phase timeouts and lock
// leases treat a silent peer as lost traffic), so frames for a peer that
// stays down are eventually dropped instead of accumulating until OOM:
// the queue is capped, and frames more than staleAfter past their due
// time are discarded when the writer finally drains. Both count as
// dropped traversals in the transport statistics.
const (
	maxQueuedFrames = 1 << 16
	staleAfter      = 30 * time.Second
)

type timedFrame struct {
	due   time.Time
	seq   uint64
	frame []byte
}

// frameHeap is a binary min-heap over (due, seq).
type frameHeap []timedFrame

func (h frameHeap) less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}

func (h *frameHeap) push(f timedFrame) {
	*h = append(*h, f)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *frameHeap) pop() timedFrame {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = timedFrame{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

func (p *peerConn) init() {
	p.wake = make(chan struct{}, 1)
	p.done = make(chan struct{})
}

func (p *peerConn) enqueue(due time.Time, frame []byte) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	if len(p.queue) >= maxQueuedFrames {
		p.mu.Unlock()
		p.stats.Drop()
		return
	}
	p.seq++
	p.queue.push(timedFrame{due: due, seq: p.seq, frame: frame})
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
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

// writeLoop waits until the earliest frame is due, then gathers every frame
// due at that moment and delivers them with one vectored write. The batch
// and writev scratch slices are loop-local and reused across iterations, so
// same-tick coalescing allocates nothing in steady state — the frames
// themselves were allocated by Send's Encode and are owned by the queue.
func (p *peerConn) writeLoop() {
	var batch [][]byte
	var scratch net.Buffers
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			select {
			case <-p.wake:
			case <-p.done:
				return
			}
			continue
		}
		now := time.Now()
		if wait := p.queue[0].due.Sub(now); wait > 0 {
			p.mu.Unlock()
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-p.wake: // an earlier frame may have arrived
				timer.Stop()
			case <-p.done:
				timer.Stop()
				return
			}
			continue
		}
		batch = batch[:0]
		stale := 0
		for len(p.queue) > 0 && !p.queue[0].due.After(now) {
			f := p.queue.pop()
			if now.Sub(f.due) > staleAfter {
				stale++ // peer was down past any useful delivery window
				continue
			}
			batch = append(batch, f.frame)
		}
		p.mu.Unlock()
		for i := 0; i < stale; i++ {
			p.stats.Drop()
		}
		if len(batch) == 0 {
			continue
		}
		p.write(batch, &scratch)
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
