// Gateway mode: -gateway drives the workload through cmd/rtds-gateway
// instead of the node control APIs directly. Submissions carry tenant
// attribution (round-robined over -tenants) and idempotency keys, 429s
// honor Retry-After, and connection failures retry — a gateway SIGKILL
// mid-run shows up as a burst of retries, not a failed load run. At the
// end every acked job ID is reconciled against GET /v1/jobs/{id}: an
// acked submission the restarted gateway no longer knows is a durability
// bug and fails the run. With -gateway, run refuses the node-mode checks
// (-verify-live, -min-agreement, -optional-sites, -joiner), and runGateway
// an empty name in -tenants.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/determinism"
	"repro/internal/graph"
	"repro/internal/nodeapi"
	"repro/internal/workload"
)

// GatewayReport is the gateway-mode machine-readable result.
type GatewayReport struct {
	Gateway  string   `json:"gateway"`
	Tenants  []string `json:"tenants"`
	Arrivals int      `json:"arrivals"`
	// Acked counts submissions the gateway answered 202 (or a duplicate
	// 200 after a retry); every acked ID must survive to the end.
	Acked int `json:"acked"`
	// LostAcked counts acked IDs the gateway no longer knew at
	// reconciliation — must be zero.
	LostAcked int `json:"lost_acked"`
	// Undecided counts acked jobs with no cluster verdict at timeout.
	Undecided int `json:"undecided"`
	Accepted  int `json:"accepted"`
	Rejected  int `json:"rejected"`
	// RateLimited counts 429 responses (retried after Retry-After).
	RateLimited int `json:"rate_limited"`
	// SubmitRetries counts transport-level retries (connection refused
	// during a gateway restart, 5xx).
	SubmitRetries int `json:"submit_retries"`
	// TenantSubmitted is the gateway's own per-tenant attribution,
	// cross-checked against what this client actually submitted.
	TenantSubmitted   map[string]int `json:"tenant_submitted"`
	MetricsValidated  []string       `json:"metrics_validated"`
	SubmitWallSeconds float64        `json:"submit_wall_seconds"`
	TotalWallSeconds  float64        `json:"total_wall_seconds"`
}

// runGateway is the -gateway entry point.
func runGateway(o opts) error {
	tenants := strings.Split(o.tenantsSpec, ",")
	if slices.Contains(tenants, "") {
		return fmt.Errorf("-tenants %q: gateway mode needs comma-separated, non-empty tenant names", o.tenantsSpec)
	}
	// The nodes named here are only scraped, so they need not be all sites.
	var nodes map[graph.NodeID]string
	if o.nodesSpec != "" {
		var err error
		if nodes, err = nodeapi.ParseAddrs("nodes", o.nodesSpec, o.sites, false); err != nil {
			return err
		}
	}
	arrivals, err := buildWorkload(o)
	if err != nil {
		return err
	}
	base := strings.TrimRight(o.gatewayURL, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	fmt.Printf("rtds-load: %d jobs via gateway %s across tenants %v (load %.2f, scale %v)\n",
		len(arrivals), base, tenants, o.load, o.scale)

	client := &http.Client{Timeout: 10 * time.Second}
	if err := waitReady(client, base, 60*time.Second); err != nil {
		return err
	}

	rep := GatewayReport{
		Gateway: base, Tenants: tenants,
		Arrivals:        len(arrivals),
		TenantSubmitted: make(map[string]int),
	}
	type acked struct {
		id, tenant string
	}
	var ackedJobs []acked
	mySubmitted := make(map[string]int)

	start := time.Now()
	for i, a := range arrivals {
		due := time.Duration(a.At * float64(o.scale))
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		tenant := tenants[i%len(tenants)]
		id, outcome, err := submitGateway(client, base, tenant,
			fmt.Sprintf("load-%d-%d", o.seed, i), a, o.timeout, &rep)
		if err != nil {
			return fmt.Errorf("submit %d (tenant %s): %w", i, tenant, err)
		}
		if outcome == "dropped" {
			continue // persistent 429: the quota is the verdict, not a failure
		}
		ackedJobs = append(ackedJobs, acked{id: id, tenant: tenant})
		mySubmitted[tenant]++
	}
	rep.Acked = len(ackedJobs)
	rep.SubmitWallSeconds = time.Since(start).Seconds()
	fmt.Printf("rtds-load: %d of %d submissions acked in %v (%d rate-limited, %d retries), reconciling...\n",
		rep.Acked, len(arrivals), time.Duration(rep.SubmitWallSeconds*float64(time.Second)).Round(time.Millisecond),
		rep.RateLimited, rep.SubmitRetries)

	// Reconciliation: every acked ID must still exist and reach a
	// decision. A 404 is an accepted-but-lost submission — the exact
	// failure the write-ahead log exists to prevent.
	deadline := time.Now().Add(o.timeout)
	for _, aj := range ackedJobs {
		for {
			var j struct {
				State   string `json:"state"`
				Outcome string `json:"outcome"`
			}
			code, err := getJSONCode(client, base+"/v1/jobs/"+aj.id, &j)
			switch {
			case err == nil && code == http.StatusNotFound:
				rep.LostAcked++
				fmt.Printf("rtds-load: LOST acked job %s (tenant %s)\n", aj.id, aj.tenant)
			case err == nil && code == http.StatusOK && j.State != "decided":
				if time.Now().Before(deadline) {
					time.Sleep(200 * time.Millisecond)
					continue
				}
				rep.Undecided++
			case err == nil && code == http.StatusOK:
				if j.Outcome == "accepted-local" || j.Outcome == "accepted-distributed" {
					rep.Accepted++
				} else {
					rep.Rejected++
				}
			case err != nil && time.Now().Before(deadline):
				time.Sleep(500 * time.Millisecond)
				continue
			default:
				return fmt.Errorf("reconcile %s: %w", aj.id, err)
			}
			break
		}
	}
	rep.TotalWallSeconds = time.Since(start).Seconds()

	// Per-tenant attribution: the gateway's own counters must match what
	// this client submitted per tenant (replayed duplicates excluded by
	// the idempotency keys).
	for _, tenant := range tenants {
		var ts struct {
			Submitted int `json:"submitted"`
		}
		code, err := getJSONCode(client, base+"/v1/tenants/"+tenant+"/stats", &ts)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("tenant %s stats: code %d, %v", tenant, code, err)
		}
		rep.TenantSubmitted[tenant] = ts.Submitted
		if ts.Submitted < mySubmitted[tenant] {
			return fmt.Errorf("tenant %s: gateway attributes %d submissions, client sent %d",
				tenant, ts.Submitted, mySubmitted[tenant])
		}
	}

	// The metrics plane must parse as valid Prometheus text — on the
	// gateway and on every node we were told about.
	targets := []string{base + "/metrics"}
	for _, id := range determinism.SortedKeys(nodes) {
		targets = append(targets, "http://"+nodes[id]+"/metrics")
	}
	for _, u := range targets {
		if _, err := getMetrics(client, u); err != nil {
			return err
		}
		rep.MetricsValidated = append(rep.MetricsValidated, u)
	}

	fmt.Printf("gateway load: %d acked, %d accepted, %d rejected, %d undecided, %d lost, per-tenant %v\n",
		rep.Acked, rep.Accepted, rep.Rejected, rep.Undecided, rep.LostAcked, rep.TenantSubmitted)
	fmt.Printf("metrics validated: %s\n", strings.Join(rep.MetricsValidated, ", "))

	if err := writeReport(o.jsonOut, rep); err != nil {
		return err
	}
	switch {
	case rep.LostAcked > 0:
		return fmt.Errorf("%d acked submissions lost — write-ahead durability broken", rep.LostAcked)
	case rep.Undecided > 0:
		return fmt.Errorf("%d acked jobs undecided after %v", rep.Undecided, o.timeout)
	case rep.Acked == 0:
		return fmt.Errorf("no submission was acked")
	}
	return nil
}

// submitGateway pushes one job, absorbing 429 backpressure (sleep
// Retry-After, retry) and transport errors (gateway restarting: retry
// with the same idempotency key). Returns outcome "dropped" when
// backpressure persists past the arrival's own deadline budget — the
// quota said no, which is a valid load-test outcome, not an error.
func submitGateway(client *http.Client, base, tenant, key string, a workload.Arrival,
	timeout time.Duration, rep *GatewayReport) (id, outcome string, err error) {
	graphJSON, err := json.Marshal(a.Graph)
	if err != nil {
		return "", "", err
	}
	body, err := json.Marshal(map[string]any{
		"tenant": tenant, "client_key": key, "deadline": a.Deadline, "graph": json.RawMessage(graphJSON),
	})
	if err != nil {
		return "", "", err
	}
	deadline := time.Now().Add(timeout)
	throttled := 0
	for {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			if time.Now().After(deadline) {
				return "", "", err
			}
			rep.SubmitRetries++
			time.Sleep(250 * time.Millisecond)
			continue
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK:
			var reply struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(data, &reply); err != nil || reply.ID == "" {
				return "", "", fmt.Errorf("malformed ack %q", data)
			}
			return reply.ID, "acked", nil
		case resp.StatusCode == http.StatusTooManyRequests:
			rep.RateLimited++
			throttled++
			if throttled > 40 || time.Now().After(deadline) {
				return "", "dropped", nil
			}
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			if wait > 2*time.Second {
				wait = 2 * time.Second // soak pacing: don't stall the pacer on long hints
			}
			time.Sleep(wait)
		case resp.StatusCode >= 500:
			if time.Now().After(deadline) {
				return "", "", fmt.Errorf("status %d: %s", resp.StatusCode, data)
			}
			rep.SubmitRetries++
			time.Sleep(250 * time.Millisecond)
		default:
			return "", "", fmt.Errorf("status %d: %s", resp.StatusCode, data)
		}
	}
}

// getJSONCode is getJSON that hands back the status code instead of
// failing on non-200s (reconciliation needs to see 404s).
func getJSONCode(client *http.Client, url string, v any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}
