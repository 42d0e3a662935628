// Command rtds-load drives a deployed rtds-node cluster: it submits a
// Std-spec DAG workload at the target rate through the nodes' HTTP control
// APIs, waits for every decision, and reports guarantee ratio, p50/p99
// decision latency, messages per job and leak checks. With -verify-live it
// additionally replays the identical workload on an in-process live cluster
// (every site in this process, on the nodes' own TCP transport over
// loopback) and reports per-arrival decision agreement — the check that
// one process and N processes decide alike.
//
// Usage:
//
//	rtds-load -nodes 0=127.0.0.1:8100,1=127.0.0.1:8101,... \
//	          -sites 8 -topo random -seed 1 \
//	          [-jobs 600] [-load 0.6] [-horizon 400] [-scale 2ms] \
//	          [-tightness 5] [-infeasible 0.3] \
//	          [-verify-live] [-min-agreement 1.0] [-json report.json] \
//	          [-optional-sites 3] [-joiner 3]
//
// The topology flags must match the nodes'; -verify-live also needs the
// nodes' -scheme/-policy/-slack/-pad to replicate their configuration.
//
// Churn soaks (scripts/soak.sh CHURN=1) kill one node mid-run and join a
// replacement on the same addresses. -optional-sites names the sites that
// may vanish: submissions to them are tolerated-skipped while they are
// down, their pre-kill jobs are written off (they died with the process),
// and unreachable polls do not fail the run. -joiner asserts the
// replacement actually served: it must have answered at least one
// enrollment and accepted at least one job of its own, or the run fails.
// -verify-live cannot be combined with churn (a lost job has no decision to
// compare, and a replacement process reuses its predecessor's job IDs).
//
// rtds-load reads the nodes as the gateway does: each node's decision
// journal (GET /jobs?since=) with a cursor and boot token, its totals from
// GET /metrics, and only the leak check's GET /reservations grows with
// the history.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	rtds "repro"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/nodeapi"
	"repro/internal/scheme"
	"repro/internal/workload"
)

func main() {
	nodesSpec := flag.String("nodes", "", "comma-separated id=host:port control (HTTP) addresses of all sites (required)")
	sites := flag.Int("sites", 8, "number of sites (must match the nodes)")
	topoKind := flag.String("topo", "random", "topology kind (must match the nodes)")
	seed := flag.Int64("seed", 1, "topology and workload seed (must match the nodes)")
	jobs := flag.Int("jobs", 0, "target job count (0 = whatever the horizon yields)")
	load := flag.Float64("load", 0.6, "offered load of the Std-spec workload")
	horizon := flag.Float64("horizon", 400, "arrival horizon in virtual time units")
	scale := flag.Duration("scale", 2*time.Millisecond, "wall-clock duration of one virtual unit (pacing; must match the nodes)")
	tightness := flag.Float64("tightness", 0, "override deadline tightness (0 = Std-spec 2.5)")
	infeasible := flag.Float64("infeasible", 0, "fraction of extra infeasible jobs (deadline < critical path)")
	verifyLive := flag.Bool("verify-live", false, "replay the workload on an in-process live cluster and compare decisions")
	minAgreement := flag.Float64("min-agreement", 0, "fail unless decision agreement with -verify-live reaches this fraction")
	schemeName := flag.String("scheme", "rtds", "scheme of the deployed nodes (for -verify-live)")
	policySpec := flag.String("policy", "", "policy overrides of the deployed nodes (for -verify-live)")
	slack := flag.Float64("slack", 8, "enrollment slack of the deployed nodes (for -verify-live)")
	pad := flag.Float64("pad", 30, "release pad factor of the deployed nodes (for -verify-live)")
	timeout := flag.Duration("timeout", 5*time.Minute, "how long to wait for all decisions")
	jsonOut := flag.String("json", "", "write the machine-readable report to this path")
	optionalSites := flag.String("optional-sites", "", "comma-separated site ids that may be down or replaced mid-run (churn mode)")
	joiner := flag.Int("joiner", -1, "site id that must have joined and served by the end of the run")
	gatewayURL := flag.String("gateway", "", "drive the workload through this rtds-gateway base URL instead of the node APIs")
	tenantsList := flag.String("tenants", "", "gateway mode: comma-separated tenant names to round-robin submissions over")
	flag.Parse()

	if err := run(opts{
		nodesSpec: *nodesSpec, sites: *sites, topoKind: *topoKind, seed: *seed,
		jobs: *jobs, load: *load, horizon: *horizon, scale: *scale,
		tightness: *tightness, infeasible: *infeasible,
		verifyLive: *verifyLive, minAgreement: *minAgreement,
		schemeName: *schemeName, policySpec: *policySpec, slack: *slack, pad: *pad,
		timeout: *timeout, jsonOut: *jsonOut,
		optionalSpec: *optionalSites, joiner: *joiner,
		gatewayURL: *gatewayURL, tenantsSpec: *tenantsList,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

type opts struct {
	nodesSpec    string
	sites        int
	topoKind     string
	seed         int64
	jobs         int
	load         float64
	horizon      float64
	scale        time.Duration
	tightness    float64
	infeasible   float64
	verifyLive   bool
	minAgreement float64
	schemeName   string
	policySpec   string
	slack, pad   float64
	timeout      time.Duration
	jsonOut      string
	optionalSpec string
	joiner       int
	gatewayURL   string
	tenantsSpec  string

	optional map[graph.NodeID]bool // parsed optionalSpec
}

func (o opts) churn() bool { return len(o.optional) > 0 }

// Report is the load run's machine-readable result.
type Report struct {
	Sites              int      `json:"sites"`
	Jobs               int      `json:"jobs"`
	Undecided          int      `json:"undecided"`
	Accepted           int      `json:"accepted"`
	GuaranteeRatio     float64  `json:"guarantee_ratio"`
	DecisionLatencyP50 float64  `json:"decision_latency_p50"`
	DecisionLatencyP99 float64  `json:"decision_latency_p99"`
	Messages           int64    `json:"messages"`
	Bytes              int64    `json:"bytes"`
	MsgsPerJob         float64  `json:"msgs_per_job"`
	Dropped            int64    `json:"dropped"`
	Violations         int      `json:"violations"`
	Disruptions        int      `json:"disruptions"`
	LeakedReservations []string `json:"leaked_reservations"`
	SubmitWallSeconds  float64  `json:"submit_wall_seconds"`
	TotalWallSeconds   float64  `json:"total_wall_seconds"`
	// Churn mode: submissions skipped because an optional site was down,
	// jobs written off because they died with a killed node (submitted
	// successfully but never visible again), reservations held for jobs no
	// reachable node remembers (informational — the job record died with
	// its initiator), and the joiner's served work.
	SkippedSubmissions int      `json:"skipped_submissions,omitempty"`
	LostJobs           int      `json:"lost_jobs,omitempty"`
	OrphanReservations []string `json:"orphan_reservations,omitempty"`
	JoinerEnrollAcks   int64    `json:"joiner_enroll_acks,omitempty"`
	JoinerAccepted     int      `json:"joiner_accepted,omitempty"`
	// LiveVerified records whether -verify-live ran; without it an
	// agreement of 0.0 (total disagreement) would be indistinguishable
	// from "not verified" in the JSON. LiveAgreement is the fraction of
	// arrivals whose guarantee decision (accepted vs rejected — the
	// paper's decision) matched the live replay; LiveAgreementStrict
	// additionally distinguishes local from distributed acceptance, which
	// is a mechanism detail two wall-clock runs may legitimately resolve
	// differently on a busy site.
	LiveVerified        bool     `json:"live_verified"`
	LiveAgreement       float64  `json:"live_agreement"`
	LiveAgreementStrict float64  `json:"live_agreement_strict"`
	LiveMismatches      []string `json:"live_mismatches,omitempty"`
}

func run(o opts) error {
	if o.gatewayURL != "" {
		return runGateway(o)
	}
	if o.nodesSpec == "" {
		return fmt.Errorf("-nodes is required")
	}
	nodes, err := nodeapi.ParseAddrs("nodes", o.nodesSpec, o.sites, true)
	if err != nil {
		return err
	}
	if o.optionalSpec != "" {
		if o.optional, err = nodeapi.ParseSites("optional-sites", o.optionalSpec, o.sites); err != nil {
			return err
		}
	}
	if o.verifyLive && o.churn() {
		return fmt.Errorf("-verify-live cannot be combined with -optional-sites: " +
			"a job lost with a killed node has no decision to compare")
	}
	if o.joiner >= o.sites {
		return fmt.Errorf("-joiner %d out of range [0,%d)", o.joiner, o.sites)
	}
	arrivals, err := buildWorkload(o)
	if err != nil {
		return err
	}
	fmt.Printf("rtds-load: %d jobs over %d sites (load %.2f, horizon %.0f, scale %v)\n",
		len(arrivals), o.sites, o.load, o.horizon, o.scale)

	client := &http.Client{Timeout: 10 * time.Second}
	for id := 0; id < o.sites; id++ {
		if err := waitReady(client, "http://"+nodes[graph.NodeID(id)], 60*time.Second); err != nil {
			if o.optional[graph.NodeID(id)] {
				fmt.Printf("rtds-load: optional site %d not ready, continuing\n", id)
				continue
			}
			return fmt.Errorf("node %d: %w", id, err)
		}
	}
	// The report assumes this run's jobs are the only jobs the nodes have;
	// stale jobs from an earlier run would silently corrupt it, so refuse
	// them loudly.
	for id := 0; id < o.sites; id++ {
		t, err := scrapeNode(client, nodes[graph.NodeID(id)])
		if err != nil {
			if o.optional[graph.NodeID(id)] {
				continue
			}
			return fmt.Errorf("node %d: %w", id, err)
		}
		if t.jobs > 0 {
			return fmt.Errorf("node %d already has %d jobs from an earlier run; restart the cluster", id, t.jobs)
		}
	}

	// Submit at the target rate: one serial pacer, each arrival's job ID
	// kept for the -verify-live pairing. In churn mode a submission to a
	// down optional site is skipped, not fatal — the node was killed, or its
	// replacement is not ready yet.
	start := time.Now()
	skipped := 0
	submitted := make(map[graph.NodeID]int)
	ids := make([]string, len(arrivals))
	for i, a := range arrivals {
		due := time.Duration(a.At * float64(o.scale))
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		id, err := submit(client, nodes[a.Origin], a)
		if err != nil {
			if o.optional[a.Origin] {
				skipped++
				continue
			}
			return fmt.Errorf("submit %d to site %d: %w", i, a.Origin, err)
		}
		ids[i] = id
		submitted[a.Origin]++
	}
	submitWall := time.Since(start)
	fmt.Printf("rtds-load: %d of %d jobs submitted in %v (%d skipped), waiting for decisions...\n",
		len(arrivals)-skipped, len(arrivals), submitWall.Round(time.Millisecond), skipped)

	journals := make([]*journal, o.sites)
	for id := range journals {
		journals[id] = &journal{addr: nodes[graph.NodeID(id)]}
	}
	if err := waitDecided(client, journals, o, submitted); err != nil {
		return err
	}
	wall := time.Since(start)

	rep, err := buildReport(client, journals, o)
	if err != nil {
		return err
	}
	rep.SkippedSubmissions = skipped
	for id, n := range submitted {
		if lost := n - len(journals[id].decided); lost > 0 {
			rep.LostJobs += lost
		}
	}
	rep.SubmitWallSeconds = submitWall.Seconds()
	rep.TotalWallSeconds = wall.Seconds()

	if o.verifyLive {
		if err := verifyAgainstLive(o, arrivals, ids, journals, &rep); err != nil {
			return err
		}
	}

	fmt.Printf("guarantee ratio %.3f (%d/%d accepted), latency p50 %.2f p99 %.2f units, %.1f msgs/job\n",
		rep.GuaranteeRatio, rep.Accepted, rep.Jobs,
		rep.DecisionLatencyP50, rep.DecisionLatencyP99, rep.MsgsPerJob)
	if rep.Dropped > 0 || rep.Disruptions > 0 {
		fmt.Printf("faults: %d traversals dropped, %d disruptions\n", rep.Dropped, rep.Disruptions)
	}
	if o.churn() {
		fmt.Printf("churn: %d submissions skipped, %d jobs lost with killed nodes, %d orphan reservations\n",
			rep.SkippedSubmissions, rep.LostJobs, len(rep.OrphanReservations))
	}
	if o.joiner >= 0 {
		fmt.Printf("joiner %d: %d enroll-acks served, %d own jobs accepted\n",
			o.joiner, rep.JoinerEnrollAcks, rep.JoinerAccepted)
	}
	if o.verifyLive {
		fmt.Printf("live-cluster agreement: %.4f on the guarantee decision (%.4f incl. local-vs-distributed), %d mismatches\n",
			rep.LiveAgreement, rep.LiveAgreementStrict, len(rep.LiveMismatches))
		for _, m := range rep.LiveMismatches {
			fmt.Println("  mismatch:", m)
		}
	}
	if err := writeReport(o.jsonOut, rep); err != nil {
		return err
	}

	switch {
	case rep.Undecided > 0:
		return fmt.Errorf("%d jobs left undecided", rep.Undecided)
	case len(rep.LeakedReservations) > 0:
		return fmt.Errorf("leaked reservations: %v", rep.LeakedReservations)
	case rep.Violations > 0:
		return fmt.Errorf("%d causality violations", rep.Violations)
	case o.verifyLive && rep.LiveAgreement < o.minAgreement:
		return fmt.Errorf("live agreement %.4f below -min-agreement %.4f", rep.LiveAgreement, o.minAgreement)
	case o.joiner >= 0 && rep.JoinerEnrollAcks == 0:
		return fmt.Errorf("joiner %d never answered an enrollment", o.joiner)
	case o.joiner >= 0 && rep.JoinerAccepted == 0:
		return fmt.Errorf("joiner %d accepted none of its own jobs", o.joiner)
	}
	return nil
}

// buildWorkload draws the Std-spec workload (the suite's shape) at the
// requested load, optionally overriding tightness and mixing in a fraction
// of infeasible jobs (deadline below the critical path — rejected by every
// scheduler, margin-robust by construction). With -jobs the horizon is
// doubled until the target count is reached, then truncated.
func buildWorkload(o opts) ([]workload.Arrival, error) {
	horizon := o.horizon
	for {
		spec := experiments.StdSpec(o.sites, horizon, o.seed)
		if o.tightness > 0 {
			spec.Tightness = o.tightness
		}
		arrivals, err := experiments.ArrivalsForLoad(spec, o.load)
		if err != nil {
			return nil, err
		}
		if o.infeasible > 0 {
			spec2 := spec
			spec2.Tightness = 0.4
			spec2.Seed = o.seed + 1
			extra, err := experiments.ArrivalsForLoad(spec2, o.load*o.infeasible)
			if err != nil {
				return nil, err
			}
			arrivals = append(arrivals, extra...)
			sort.Slice(arrivals, func(i, j int) bool {
				if arrivals[i].At != arrivals[j].At {
					return arrivals[i].At < arrivals[j].At
				}
				return arrivals[i].Origin < arrivals[j].Origin
			})
		}
		if o.jobs <= 0 || len(arrivals) >= o.jobs {
			if o.jobs > 0 {
				arrivals = arrivals[:o.jobs]
			}
			return arrivals, nil
		}
		horizon *= 2
		if horizon > 1e6 {
			return nil, fmt.Errorf("cannot reach %d jobs even with horizon %.0f", o.jobs, horizon)
		}
	}
}

// waitReady polls base's /readyz (a node's control API or the gateway).
func waitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(250 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v", base, timeout)
}

// submit posts one arrival to its origin's node and returns the job ID.
func submit(client *http.Client, addr string, a workload.Arrival) (string, error) {
	graphJSON, err := json.Marshal(a.Graph)
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(nodeapi.SubmitRequest{At: 0, Deadline: a.Deadline, Graph: graphJSON})
	if err != nil {
		return "", err
	}
	resp, err := client.Post("http://"+addr+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(msg.String()))
	}
	var reply struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || reply.ID == "" {
		return "", fmt.Errorf("malformed submit reply: %v", err)
	}
	return reply.ID, nil
}

// waitDecided reads every node's journal until the submitted jobs are
// decided AND every node reports idle (lock released, transactions closed
// — so the abort unlocks of rejected jobs have been processed and the
// subsequent /reservations leak check does not race in-flight cleanup).
//
// A required site must have decided every successful submission. An
// optional site (churn mode) is weaker by nature: an unreachable one is
// skipped, and a reachable one only needs every job it still REMEMBERS
// decided, as its /metrics counts them — jobs submitted to a node that was
// later killed died with it and cannot be waited for.
func waitDecided(client *http.Client, journals []*journal, o opts, submitted map[graph.NodeID]int) error {
	deadline := time.Now().Add(o.timeout)
	for {
		done := true
		decided, want := 0, 0
		for id, j := range journals {
			site := graph.NodeID(id)
			if err := j.read(client); err != nil {
				if o.optional[site] {
					continue
				}
				return fmt.Errorf("node %d: %w", id, err)
			}
			n := submitted[site]
			if o.optional[site] {
				t, err := scrapeNode(client, j.addr)
				if err != nil {
					continue
				}
				n = t.jobs
			}
			decided += len(j.decided)
			want += n
			if len(j.decided) < n {
				done = false
			}
		}
		if done && allIdle(client, journals, o) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout: %d of %d jobs decided after %v", decided, want, o.timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func allIdle(client *http.Client, journals []*journal, o opts) bool {
	for id, j := range journals {
		var reply struct {
			Idle bool `json:"idle"`
		}
		if err := getJSON(client, "http://"+j.addr+"/idle", &reply); err != nil {
			if o.optional[graph.NodeID(id)] {
				continue
			}
			return false
		}
		if !reply.Idle {
			return false
		}
	}
	return true
}

// buildReport aggregates the nodes' journals and /metrics and runs the leak
// check. Every fetch failure is an error, not a skip — a node whose
// /reservations answer was lost must not silently pass the gate this tool
// exists to enforce — except on optional sites in churn mode, which may
// simply be gone.
//
// The leak check distinguishes two cases. A reservation of a job some
// node REMEMBERS rejecting is a leak: the abort path failed. A
// reservation of a job no reachable node remembers at all can only happen
// in churn mode (the job record died with its killed initiator after the
// commit went out); it is reported as an orphan, not a failure — the
// member executed a share in good faith and its slots expire with time.
func buildReport(client *http.Client, journals []*journal, o opts) (Report, error) {
	rep := Report{Sites: o.sites, LeakedReservations: []string{}}
	var latency metrics.Sample
	accepted := make(map[string]bool)
	known := make(map[string]bool)
	for _, j := range journals {
		for _, st := range j.decided {
			known[st.ID] = true
			if st.OutcomeName == "accepted-local" || st.OutcomeName == "accepted-distributed" {
				rep.Accepted++
				accepted[st.ID] = true
			}
			latency.Add(st.DecisionAt - st.Arrival)
		}
	}
	rep.DecisionLatencyP50 = latency.Percentile(50)
	rep.DecisionLatencyP99 = latency.Percentile(99)
	for id, j := range journals {
		site := graph.NodeID(id)
		t, err := scrapeNode(client, j.addr)
		if err != nil {
			if o.optional[site] {
				continue
			}
			return rep, fmt.Errorf("node %d metrics: %w", id, err)
		}
		rep.Jobs += t.jobs
		rep.Undecided += t.jobs - t.decided
		rep.Messages += t.messages
		rep.Bytes += t.bytes
		rep.Dropped += t.dropped
		rep.Violations += t.violations
		rep.Disruptions += t.disruptions
		if id == o.joiner {
			rep.JoinerEnrollAcks = t.enrollAcks
			for jobID := range j.decided {
				if accepted[jobID] {
					rep.JoinerAccepted++
				}
			}
		}
		var r struct {
			Jobs []string `json:"jobs"`
		}
		if err := getJSON(client, "http://"+j.addr+"/reservations", &r); err != nil {
			if o.optional[site] {
				continue
			}
			return rep, fmt.Errorf("node %d reservations: %w", id, err)
		}
		for _, jobID := range r.Jobs {
			switch {
			case accepted[jobID]:
			case known[jobID] || !o.churn():
				rep.LeakedReservations = append(rep.LeakedReservations,
					fmt.Sprintf("site %d: %s", id, jobID))
			default:
				rep.OrphanReservations = append(rep.OrphanReservations,
					fmt.Sprintf("site %d: %s", id, jobID))
			}
		}
	}
	if rep.Jobs > 0 {
		rep.GuaranteeRatio = float64(rep.Accepted) / float64(rep.Jobs)
		rep.MsgsPerJob = float64(rep.Messages) / float64(rep.Jobs)
	}
	return rep, nil
}

func getJSON(client *http.Client, url string, v any) error {
	code, err := getJSONCode(client, url, v)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, code)
	}
	return err
}

// writeReport writes the -json report of either mode; no path, no file.
func writeReport(path string, rep any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// verifyAgainstLive replays the identical arrivals on an in-process live
// cluster with the nodes' configuration and compares per-arrival
// outcomes, pairing each arrival with the decision of the job ID its
// /submit returned.
func verifyAgainstLive(o opts, arrivals []workload.Arrival, ids []string,
	journals []*journal, rep *Report) error {
	topo, err := graph.Generate(graph.TopologyKind(o.topoKind), o.sites, experiments.StdDelays, o.seed)
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
	fmt.Println("rtds-load: replaying the workload on an in-process live cluster...")
	lc, err := rtds.NewLiveCluster(topo, cfg, o.scale)
	if err != nil {
		return err
	}
	defer lc.Close()
	for _, a := range arrivals {
		if _, err := lc.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
			return err
		}
	}
	if !lc.Wait(o.timeout) {
		return fmt.Errorf("live replay did not quiesce within %v", o.timeout)
	}
	live := lc.JobStatuses()
	rep.LiveVerified = true

	accepted := func(outcome string) bool {
		return outcome == "accepted-local" || outcome == "accepted-distributed"
	}
	match, strict := 0, 0
	for i, a := range arrivals {
		netSt := journals[a.Origin].decided[ids[i]]
		if netSt.OutcomeName == live[i].OutcomeName {
			strict++
		}
		if accepted(netSt.OutcomeName) == accepted(live[i].OutcomeName) {
			match++
		} else {
			rep.LiveMismatches = append(rep.LiveMismatches, fmt.Sprintf(
				"arrival %d (origin %d): cluster %s, live %s",
				i, a.Origin, netSt.OutcomeName, live[i].OutcomeName))
		}
	}
	if len(arrivals) > 0 {
		rep.LiveAgreement = float64(match) / float64(len(arrivals))
		rep.LiveAgreementStrict = float64(strict) / float64(len(arrivals))
	}
	return nil
}
