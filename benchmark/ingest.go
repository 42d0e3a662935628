package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/joblog"
)

// gateway_ingest: the gateway and its write-ahead log alone. The child runs
// a gateway.Server over an instant in-memory Backend with a real, fsynced
// WAL, started on a log the parent pre-built, so set-up is restart recovery.
// The parent drives a closed loop of one client per CPU.
const (
	ingestPrebuiltJobs = 40000
	ingestUndecided    = 100
	// ingestSegments is how many fresh children the measured time is split
	// over.
	ingestSegments = 3
	// The operation mix of the closed loop.
	ingestFreshShare   = 0.70
	ingestDupShare     = 0.10
	ingestInvalidShare = 0.10 // the rest are status GETs
)

type ingestInput struct {
	WALPath     string `json:"wal_path"`
	Traced      bool   `json:"traced"`
	ProfilePath string `json:"profile_path,omitempty"`
}

type ingestOutput struct {
	Cost         childCost `json:"cost"`
	BackendCalls int       `json:"backend_calls"` // Submit + Decisions + Stats during the run
	Fsyncs       int       `json:"fsyncs"`
	FsyncMsP50   float64   `json:"fsync_ms_p50"`
	FsyncMsP90   float64   `json:"fsync_ms_p90"`
}

// instantBackend decides every job the moment it is forwarded. Decisions
// reports each verdict once, in the poll after the forward: the gateway
// never asks about a job it has already seen decided, and returning the whole
// history on every poll would bill the backend's bookkeeping to the gateway.
type instantBackend struct {
	mu      sync.Mutex
	next    int
	pending []string
	calls   int
}

func (b *instantBackend) Submit(at, deadline float64, graph json.RawMessage) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	b.next++
	id := fmt.Sprintf("i%d@0", b.next)
	b.pending = append(b.pending, id)
	return id, nil
}

func (b *instantBackend) Decisions() (map[string]gateway.BackendDecision, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	out := make(map[string]gateway.BackendDecision, len(b.pending))
	for _, id := range b.pending {
		out[id] = gateway.BackendDecision{Outcome: "accepted-local"}
	}
	b.pending = b.pending[:0]
	return out, nil
}

func (b *instantBackend) Stats() (gateway.BackendStats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	return gateway.BackendStats{ReachableSites: 1}, nil
}

func ingestChild(pio *childIO) error {
	var in ingestInput
	if err := pio.read(&in); err != nil {
		return err
	}
	var fsyncMu sync.Mutex
	var fsync sample
	setupStart := time.Now()
	backend := &instantBackend{}
	gw, err := gateway.New(gateway.Options{
		Tenants: map[string]gateway.Quota{liveTenant: {Rate: 1e9, Burst: 1e9}},
		Backend: backend,
		LogPath: in.WALPath,
		Log: joblog.Options{OnSync: func(d time.Duration) {
			fsyncMu.Lock()
			fsync.addDur(d, time.Millisecond)
			fsyncMu.Unlock()
		}},
	})
	if err != nil {
		return err
	}
	lc := &liveCluster{gw: gw}
	defer lc.close()
	addr, err := lc.serve(gw)
	if err != nil {
		return err
	}
	setup := time.Since(setupStart)
	ready := readUsage()
	backend.mu.Lock()
	callsAtReady := backend.calls
	backend.mu.Unlock()

	stopProfile, err := startProfile(in.ProfilePath)
	if err != nil {
		return err
	}
	defer stopProfile()
	runStart := time.Now()
	if err := pio.ready(addr); err != nil {
		return err
	}
	// The parent's first line marks the end of the load (the cost is taken
	// there, before the drain's status reads), its second stops the child.
	var line struct{}
	if err := pio.read(&line); err != nil {
		return err
	}
	run := time.Since(runStart)
	stopProfile()
	end := readUsage()
	if err := pio.read(&line); err != nil {
		return err
	}

	out := ingestOutput{Cost: costBetween(ready, end, setup, run)}
	backend.mu.Lock()
	out.BackendCalls = backend.calls - callsAtReady
	backend.mu.Unlock()
	fsyncMu.Lock()
	out.Fsyncs = fsync.n()
	out.FsyncMsP50 = fsync.median()
	out.FsyncMsP90 = fsync.percentile(90)
	fsyncMu.Unlock()
	return pio.result(out)
}

// ---------------------------------------------------------------------------
// Parent side

// prebuildWAL writes the log a long-running gateway would restart on:
// jobs x submitted/forwarded/decided plus a few still undecided. Untimed.
func prebuildWAL(path string, jobs, undecided int, graphs []json.RawMessage) error {
	l, _, err := joblog.Open(path, joblog.Options{NoSync: true})
	if err != nil {
		return err
	}
	for i := 1; i <= jobs+undecided; i++ {
		id := fmt.Sprintf("g%d", i)
		cluster := fmt.Sprintf("p%d@0", i)
		recs := []joblog.Record{
			{Type: joblog.TypeSubmitted, ID: id, Seq: uint64(i), Tenant: liveTenant,
				ClientKey: fmt.Sprintf("pre-%d", i), Deadline: 100, Graph: graphs[i%len(graphs)]},
			{Type: joblog.TypeForwarded, ID: id, Tenant: liveTenant, ClusterID: cluster},
		}
		if i <= jobs {
			recs = append(recs, joblog.Record{Type: joblog.TypeDecided, ID: id, Tenant: liveTenant,
				ClusterID: cluster, Outcome: "accepted-local", DecisionLatency: 1})
		}
		for _, r := range recs {
			if err := l.Append(r); err != nil {
				l.Close()
				return err
			}
		}
	}
	return l.Close()
}

// invalidGraph fails dag validation: its edge names a task that is not there.
const invalidGraph = `{"name":"bad","tasks":[{"id":1,"complexity":1}],"edges":[{"from":1,"to":9}]}`

// ingestOp is the kind of one closed-loop operation.
type ingestOp int

const (
	opFresh ingestOp = iota
	opDup
	opInvalid
	opGet
)

// numIngestOps sizes the per-kind tallies.
const numIngestOps = 4

// ingestClient is one closed-loop client's tally.
type ingestClient struct {
	ops, failed, refused int
	lat                  [numIngestOps]sample // microseconds
	acked                []string             // gateway ids of this client's fresh jobs
	problems             []string
}

// run issues operations back to back until the deadline.
func (c *ingestClient) run(name string, addr string, seed int64, bodies [][]byte, prebuilt int, until time.Time) {
	client := newGatewayClient(addr)
	rng := rand.New(rand.NewSource(seed))
	type sent struct{ key, id string }
	var mine []sent
	fail := func(format string, args ...any) {
		c.failed++
		if len(c.problems) < 5 {
			c.problems = append(c.problems, fmt.Sprintf(format, args...))
		}
	}
	post := func(body []byte) (int, gateway.Job, time.Duration, error) {
		start := time.Now()
		code, job, err := client.post(body)
		return code, job, time.Since(start), err
	}
	for n := 0; time.Now().Before(until); n++ {
		r := rng.Float64()
		op := opGet
		switch {
		case r < ingestFreshShare || len(mine) == 0:
			op = opFresh
		case r < ingestFreshShare+ingestDupShare:
			op = opDup
		case r < ingestFreshShare+ingestDupShare+ingestInvalidShare:
			op = opInvalid
		}
		c.ops++
		switch op {
		case opFresh:
			key := fmt.Sprintf("%s-%d", name, n)
			body := withClientKey(bodies[rng.Intn(len(bodies))], key)
			code, job, d, err := post(body)
			switch {
			case err != nil:
				fail("fresh POST: %v", err)
			case code == http.StatusTooManyRequests:
				c.refused++
				fail("fresh POST refused with 429")
			case code != http.StatusAccepted:
				fail("fresh POST: status %d, want 202", code)
			default:
				c.lat[opFresh].addDur(d, time.Microsecond)
				mine = append(mine, sent{key: key, id: job.ID})
				c.acked = append(c.acked, job.ID)
			}
		case opDup:
			prev := mine[rng.Intn(len(mine))]
			body := withClientKey(bodies[rng.Intn(len(bodies))], prev.key)
			code, job, d, err := post(body)
			switch {
			case err != nil:
				fail("duplicate POST: %v", err)
			case code != http.StatusOK:
				fail("duplicate POST: status %d, want 200", code)
			case job.ID != prev.id:
				fail("duplicate POST of %s returned %s, want the original %s", prev.key, job.ID, prev.id)
			default:
				c.lat[opDup].addDur(d, time.Microsecond)
			}
		case opInvalid:
			body := []byte(`{"tenant":"` + liveTenant + `","deadline":100,"graph":` + invalidGraph + `}`)
			code, _, d, err := post(body)
			switch {
			case err != nil:
				fail("invalid POST: %v", err)
			case code != http.StatusBadRequest:
				fail("invalid POST: status %d, want 400", code)
			default:
				c.lat[opInvalid].addDur(d, time.Microsecond)
			}
		case opGet:
			target := fmt.Sprintf("g%d", 1+rng.Intn(prebuilt))
			if rng.Intn(2) == 0 {
				target = mine[rng.Intn(len(mine))].id
			}
			start := time.Now()
			code, job, err := client.get(target)
			d := time.Since(start)
			switch {
			case err != nil:
				fail("GET %s: %v", target, err)
			case code != http.StatusOK || job.ID != target:
				fail("GET %s: status %d, id %q", target, code, job.ID)
			default:
				c.lat[opGet].addDur(d, time.Microsecond)
			}
		}
	}
}

// withClientKey splices a client_key into a pre-encoded submission body (a
// JSON object without one), sparing the generator a re-encode of the graph
// on every operation.
func withClientKey(body []byte, key string) []byte {
	out := make([]byte, 0, len(body)+len(key)+16)
	out = append(out, `{"client_key":"`...)
	out = append(out, key...)
	out = append(out, `",`...)
	return append(out, body[1:]...)
}

// ingestPass is one closed-loop phase against one child.
type ingestPass struct {
	out      ingestOutput
	clients  []*ingestClient
	elapsed  time.Duration
	accepted int // fresh jobs the gateway reported decided and accepted by drain end
	walBytes int64
}

func ingestRunChild(opt runOptions, wal string, bodies [][]byte, prebuilt int, seconds float64, tag string, traced bool) (*ingestPass, error) {
	in := ingestInput{WALPath: wal, Traced: traced}
	if traced {
		in.ProfilePath = opt.outPath(wlIngest + ".cpu.pprof")
	}
	c, err := startChild(wlIngest, in)
	if err != nil {
		return nil, err
	}
	ready, err := c.recv("ready")
	if err != nil {
		c.kill()
		return nil, err
	}
	pass := &ingestPass{}
	start := time.Now()
	until := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		cl := &ingestClient{}
		pass.clients = append(pass.clients, cl)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every pass runs on the log the earlier ones grew, so the
			// idempotency keys carry the pass's tag.
			cl.run(fmt.Sprintf("%s-c%d", tag, i), ready.Addr, opt.seed*100+int64(i), bodies, prebuilt, until)
		}(i)
	}
	wg.Wait()
	pass.elapsed = time.Since(start)
	if err := c.send(struct{}{}); err != nil { // the load has ended
		c.kill()
		return nil, err
	}
	pass.accepted = ingestDrain(ready.Addr, pass.clients)
	if err := c.send(struct{}{}); err != nil { // stop
		c.kill()
		return nil, err
	}
	if err := c.finish(&pass.out); err != nil {
		return nil, err
	}
	if st, err := os.Stat(wal); err == nil {
		pass.walBytes = st.Size()
	}
	return pass, nil
}

// ingestDrain waits for the gateway's poll loop to harvest the instant
// backend's verdicts and counts the fresh jobs it reports accepted.
func ingestDrain(addr string, clients []*ingestClient) int {
	client := newGatewayClient(addr)
	var ids []string
	for _, c := range clients {
		ids = append(ids, c.acked...)
	}
	accepted := 0
	deadline := time.Now().Add(3 * time.Second)
	for len(ids) > 0 {
		var still []string
		for _, id := range ids {
			code, job, err := client.get(id)
			switch {
			case err != nil || code != http.StatusOK || job.State != gateway.StateDecided:
				still = append(still, id)
			case job.Outcome == "accepted-local":
				accepted++
			}
		}
		ids = still
		if time.Now().After(deadline) {
			break
		}
		if len(ids) > 0 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	return accepted
}

func runIngest(opt runOptions) (*record, error) {
	seconds := float64(opt.seconds)
	prebuilt, undecided := ingestPrebuiltJobs, ingestUndecided
	if opt.smoke {
		seconds, prebuilt, undecided = 1, 500, 10
	}
	if opt.traced {
		seconds /= 2
	}
	// The submitted DAGs: the suite's standard mix, drawn from the seed.
	arrivals, err := stdArrivals(liveSites, 2000, 0.8, 1, opt.seed)
	if err != nil {
		return nil, err
	}
	if len(arrivals) > 500 {
		arrivals = arrivals[:500]
	}
	encoded, err := encodeArrivals(arrivals)
	if err != nil {
		return nil, err
	}
	graphs := make([]json.RawMessage, len(encoded))
	bodies := make([][]byte, len(encoded))
	for i, a := range arrivals {
		graphs[i] = encoded[i].Graph
		if bodies[i], err = submitBody(a); err != nil {
			return nil, err
		}
	}

	rec := newRecord(wlIngest, opt)
	rec.Sizes = map[string]any{
		"prebuilt_jobs": prebuilt, "prebuilt_undecided": undecided, "clients": runtime.NumCPU(),
		"load_seconds": seconds, "mix": "70% fresh POST, 10% duplicate POST, 10% invalid POST, 10% GET",
		"fsync": true, "gateway_poll_ms": 200,
	}
	wal := opt.outPath(fmt.Sprintf("ingest-%d.wal", os.Getpid()))
	defer os.Remove(wal)
	if err := prebuildWAL(wal, prebuilt, undecided, graphs); err != nil {
		return nil, err
	}

	// The measured time is split over fresh children, each restarting on the
	// log the previous one left: times are medians over them, counts are
	// pooled, and setup_s is a median of real restarts. One start of the
	// gateway lands on a resident peak near 155 or near 170 MB as the GC
	// happens to fall during replay; a median of three picks one of the two
	// modes, so peak_rss_mb is their mean.
	segments := ingestSegments
	if opt.traced || opt.smoke {
		segments = 1
	}
	rec.Sizes["segments"] = segments
	var setup, rss, cpu sample
	var elapsed time.Duration
	var ops, fresh, accepted, backendCalls int
	var ack sample
	acked := make(map[string]bool)
	for seg := 0; seg < segments; seg++ {
		pass, err := ingestRunChild(opt, wal, bodies, prebuilt+undecided, seconds/float64(segments), fmt.Sprintf("u%d", seg), false)
		if err != nil {
			return nil, err
		}
		for id := range ingestTally(rec, pass) {
			acked[id] = true
		}
		segOps := 0
		for _, c := range pass.clients {
			segOps += c.ops
			fresh += len(c.acked)
			ack.v = append(ack.v, c.lat[opFresh].v...)
		}
		if segOps == 0 {
			return nil, fmt.Errorf("segment %d completed no operation", seg)
		}
		ops += segOps
		accepted += pass.accepted
		backendCalls += pass.out.BackendCalls
		elapsed += pass.elapsed
		setup.add(pass.out.Cost.SetupS)
		rss.add(pass.out.Cost.PeakRSSMB)
		cpu.add(pass.out.Cost.CPUMs / float64(segOps))
	}
	if err := ingestCheckWAL(rec, wal, prebuilt+undecided, acked); err != nil {
		return nil, err
	}
	if fresh == 0 {
		rec.problems("no fresh submission was acknowledged")
		return rec, nil
	}
	rec.E2E = metricSet{
		"setup_s":         setup.median(),
		"jobs_per_s":      float64(ops-rec.Failed) / elapsed.Seconds(),
		"wait_ms_p50":     ack.median() / 1000,
		"wait_ms_p90":     ack.percentile(90) / 1000,
		"guarantee_ratio": float64(accepted) / float64(fresh),
		"msgs_per_job":    float64(backendCalls) / float64(fresh),
		"peak_rss_mb":     rss.mean(),
		"cpu_ms_per_job":  cpu.median(),
	}
	if !opt.traced {
		return rec, nil
	}

	traced, err := ingestRunChild(opt, wal, bodies, prebuilt+undecided, seconds, "t", true)
	if err != nil {
		return nil, err
	}
	for id := range ingestTally(rec, traced) {
		acked[id] = true
	}
	if err := ingestCheckWAL(rec, wal, prebuilt+undecided, acked); err != nil {
		return nil, err
	}
	m := rec.Layer
	var tops, tfresh, posts, refused int
	var get, dup, invalid sample
	for _, c := range traced.clients {
		tops += c.ops
		tfresh += len(c.acked)
		refused += c.refused
		posts += c.lat[opFresh].n() + c.lat[opDup].n() + c.lat[opInvalid].n() + c.refused
		get.v = append(get.v, c.lat[opGet].v...)
		dup.v = append(dup.v, c.lat[opDup].v...)
		invalid.v = append(invalid.v, c.lat[opInvalid].v...)
	}
	traced.out.Cost.goMetrics(m, tops)
	m["gateway.status_get_us"] = get.median()
	m["gateway.dup_post_us"] = dup.median()
	m["gateway.invalid_post_us"] = invalid.median()
	if posts > 0 {
		m["gateway.refused_share"] = float64(refused) / float64(posts)
	}
	m["joblog.fsync_ms.p50"] = traced.out.FsyncMsP50
	m["joblog.fsync_ms.p90"] = traced.out.FsyncMsP90
	if traced.out.Fsyncs > 0 {
		// Each fresh job appends its submitted, forwarded and decided records.
		m["joblog.records_per_fsync"] = 3 * float64(tfresh) / float64(traced.out.Fsyncs)
	}
	if n := fresh + tfresh; n > 0 {
		m["joblog.bytes_per_job"] = float64(traced.walBytes) / float64(prebuilt+undecided+n)
	}
	if base := cpu.median(); base > 0 && tops > 0 {
		m["trace.overhead_share"] = (traced.out.Cost.CPUMs/float64(tops) - base) / base
	}
	gatewayReplay(graphs, opt.smoke, m)
	if err := joblogReplay(opt.outDir, wal, graphs, opt.smoke, m); err != nil {
		return nil, err
	}
	prof := newCPUProfile()
	if err := prof.addFile(opt.outPath(wlIngest + ".cpu.pprof")); err != nil {
		return nil, err
	}
	prof.shares(m)
	return rec, nil
}

// ingestTally adds a pass's operation counts and problems to the record and
// returns the set of gateway ids the pass had acknowledged.
func ingestTally(rec *record, pass *ingestPass) map[string]bool {
	acked := make(map[string]bool)
	fresh := 0
	for _, c := range pass.clients {
		rec.Attempted += c.ops
		rec.Failed += c.failed
		rec.problems(c.problems...)
		fresh += len(c.acked)
		for _, id := range c.acked {
			acked[id] = true
		}
	}
	if undecided := fresh - pass.accepted; undecided > 0 {
		rec.Failed += undecided
		rec.problems(fmt.Sprintf("%d acknowledged jobs were not decided by the end of the drain", undecided))
	}
	return acked
}

// ingestCheckWAL re-opens the log as a restarted gateway would and checks
// that, beyond the pre-built jobs, it holds exactly the acknowledged ids.
func ingestCheckWAL(rec *record, wal string, prebuilt int, acked map[string]bool) error {
	l, records, err := joblog.Open(wal, joblog.Options{NoSync: true})
	if err != nil {
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	seen := make(map[string]bool)
	for _, j := range joblog.Summarize(records).Jobs {
		if j.Submitted.Seq > uint64(prebuilt) {
			seen[j.Submitted.ID] = true
		}
	}
	for id := range acked {
		if !seen[id] {
			rec.problems(fmt.Sprintf("acknowledged job %s is not in the re-opened log", id))
		}
	}
	if len(seen) != len(acked) {
		rec.problems(fmt.Sprintf("re-opened log holds %d new jobs, %d were acknowledged", len(seen), len(acked)))
	}
	return nil
}
