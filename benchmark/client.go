package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/workload"
)

// The parent's side of the live workloads: the gateway client, the open-loop
// generator with its decision sweeper, and what they measured.

// openLoop sends job i at start+due[i], or as soon after as the single
// submitter is free: a stalled send delays the later ones, and because each
// job is timed from its due time that wait is counted, not hidden.
type openLoop struct {
	now   func() time.Time
	sleep func(time.Duration)
}

// run calls send(i, dueAt) for every job in order; send is synchronous.
func (o openLoop) run(start time.Time, due []time.Duration, send func(i int, dueAt time.Time)) {
	for i, d := range due {
		dueAt := start.Add(d)
		if wait := dueAt.Sub(o.now()); wait > 0 {
			o.sleep(wait)
		}
		send(i, dueAt)
	}
}

// offered is the client's record of one job.
type offered struct {
	dueAt     time.Time
	sentAt    time.Time
	ackedAt   time.Time
	decidedAt time.Time
	status    int // HTTP status of the POST; 0 when the request itself failed
	gwID      string
	clusterID string
	outcome   string
}

// gatewayClient is one goroutine's connection to the gateway.
type gatewayClient struct {
	base string
	http *http.Client
}

func newGatewayClient(addr string) *gatewayClient {
	return &gatewayClient{
		base: "http://" + addr,
		http: &http.Client{
			Timeout: 10 * time.Second,
			// One connection per generator goroutine.
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
}

// post submits a body and returns the status and the decoded job.
func (c *gatewayClient) post(body []byte) (int, gateway.Job, error) {
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, gateway.Job{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, gateway.Job{}, err
	}
	var job gateway.Job
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &job); err != nil {
			return resp.StatusCode, job, err
		}
	}
	return resp.StatusCode, job, nil
}

// get reads one job's status.
func (c *gatewayClient) get(id string) (int, gateway.Job, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return 0, gateway.Job{}, err
	}
	defer resp.Body.Close()
	var job gateway.Job
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			return resp.StatusCode, job, err
		}
	} else if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, job, err
	}
	return resp.StatusCode, job, nil
}

// submitBody encodes one arrival as a POST /v1/jobs body (arrive now).
func submitBody(a workload.Arrival) ([]byte, error) {
	g, err := json.Marshal(a.Graph)
	if err != nil {
		return nil, err
	}
	return json.Marshal(gateway.SubmitRequest{Tenant: liveTenant, Deadline: a.Deadline, Graph: g})
}

// liveLoad offers the arrivals to the gateway at addr and sweeps for
// decisions until all are in or the drain times out.
func liveLoad(addr string, arrivals []workload.Arrival, drain time.Duration) ([]offered, error) {
	bodies := make([][]byte, len(arrivals))
	due := make([]time.Duration, len(arrivals))
	for i, a := range arrivals {
		body, err := submitBody(a)
		if err != nil {
			return nil, err
		}
		bodies[i] = body
		due[i] = time.Duration(a.At * float64(liveScale))
	}
	jobs := make([]offered, len(arrivals))

	var mu sync.Mutex // guards outstanding and the decided fields of jobs
	var outstanding []int
	submitted := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the decision sweeper
		defer wg.Done()
		client := newGatewayClient(addr)
		var deadline time.Time
		for {
			time.Sleep(sweepQuantum)
			mu.Lock()
			ids := append([]int(nil), outstanding...)
			mu.Unlock()
			var still []int
			for _, i := range ids {
				code, job, err := client.get(jobs[i].gwID)
				if err == nil && code == http.StatusOK && job.State == gateway.StateDecided {
					mu.Lock()
					jobs[i].decidedAt = time.Now()
					jobs[i].outcome = job.Outcome
					mu.Unlock()
					continue
				}
				still = append(still, i)
			}
			mu.Lock()
			// Jobs acked during the sweep were appended behind ids.
			outstanding = append(still, outstanding[len(ids):]...)
			left := len(outstanding)
			mu.Unlock()
			select {
			case <-submitted:
				if deadline.IsZero() {
					deadline = time.Now().Add(drain)
				}
				if left == 0 || time.Now().After(deadline) {
					return
				}
			default:
			}
		}
	}()

	client := newGatewayClient(addr)
	openLoop{now: time.Now, sleep: time.Sleep}.run(time.Now(), due, func(i int, dueAt time.Time) {
		j := &jobs[i]
		j.dueAt, j.sentAt = dueAt, time.Now()
		code, job, err := client.post(bodies[i])
		acked := time.Now()
		mu.Lock()
		defer mu.Unlock()
		j.ackedAt = acked
		if err != nil {
			return
		}
		j.status, j.gwID, j.clusterID = code, job.ID, job.ClusterID
		if code == http.StatusAccepted {
			outstanding = append(outstanding, i)
		}
	})
	close(submitted)
	wg.Wait()
	return jobs, nil
}

// liveSummary is what one load pass measured at the client.
type liveSummary struct {
	attempted, failed, refused int
	acked, accepted, decided   int
	good                       int    // decided within goodputLimit of the due time
	decide, ack, late          sample // milliseconds
	local, dist                sample // decide latency by outcome, milliseconds
}

func summarizeLive(jobs []offered) liveSummary {
	var s liveSummary
	for _, j := range jobs {
		s.attempted++
		s.late.addDur(j.sentAt.Sub(j.dueAt), time.Millisecond)
		if j.status != http.StatusAccepted {
			s.failed++
			if j.status == http.StatusTooManyRequests {
				s.refused++
			}
			continue
		}
		s.acked++
		s.ack.addDur(j.ackedAt.Sub(j.dueAt), time.Millisecond)
		if j.decidedAt.IsZero() {
			s.failed++ // acked but never seen decided
			continue
		}
		s.decided++
		d := j.decidedAt.Sub(j.dueAt)
		s.decide.addDur(d, time.Millisecond)
		if d <= goodputLimit {
			s.good++
		}
		switch j.outcome {
		case "accepted-local":
			s.accepted++
			s.local.addDur(d, time.Millisecond)
		case "accepted-distributed":
			s.accepted++
			s.dist.addDur(d, time.Millisecond)
		}
	}
	return s
}

// explain turns a pass's failed operations into the record's notes and
// problems: a refusal is a failed operation; an acked job that was never
// seen decided is a broken promise and voids the run.
func (s liveSummary) explain(rec *record) {
	if s.refused > 0 {
		rec.note(fmt.Sprintf("%d of %d submissions were refused with 429 (the gateway's laxity gate)", s.refused, s.attempted))
	}
	if n := s.failed - s.refused - (s.acked - s.decided); n > 0 {
		rec.note(fmt.Sprintf("%d submissions failed outright (no 202)", n))
	}
	if n := s.acked - s.decided; n > 0 {
		rec.problems(fmt.Sprintf("%d acknowledged jobs were not decided by the end of the drain", n))
	}
}
