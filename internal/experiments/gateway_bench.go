package experiments

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/joblog"
	"repro/internal/metrics"
)

// GatewayBench is the BENCH_suite.json "gateway" section: throughput and
// tail latency of the job-submission front door with a real write-ahead
// log (fsync batching included) and an instant in-process cluster, so the
// numbers isolate the gateway's own cost — admission, validation,
// durability — from protocol decision time.
type GatewayBench struct {
	// Jobs is the fixed workload size; CompareReports pins it exactly
	// (a changed workload needs a regenerated baseline).
	Jobs int `json:"jobs"`
	// Workers is the client concurrency of the benchmark.
	Workers int `json:"workers"`
	// SubmissionsPerSec is accepted submissions per wall-clock second.
	SubmissionsPerSec float64 `json:"submissions_per_sec"`
	// AcceptP50/AcceptP99 are percentiles of the client-observed accept
	// latency (request start to durable 202), in seconds.
	AcceptP50 float64 `json:"accept_latency_p50_seconds"`
	AcceptP99 float64 `json:"accept_latency_p99_seconds"`
	// FsyncP99 is the p99 write-ahead-log fsync batch latency in
	// seconds, and FsyncBatches the number of batches — fewer than Jobs
	// when concurrent submissions share their fsyncs.
	FsyncP99     float64 `json:"joblog_fsync_p99_seconds"`
	FsyncBatches int     `json:"joblog_fsync_batches"`
}

// benchGatewayBackend accepts every submission instantly: the cluster
// cost is out of scope here.
type benchGatewayBackend struct {
	mu   sync.Mutex
	next int
}

func (b *benchGatewayBackend) Submit(at, deadline float64, graph json.RawMessage) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.next++
	return fmt.Sprintf("j%d@0", b.next), nil
}

func (b *benchGatewayBackend) Decisions() (map[string]gateway.BackendDecision, error) {
	return map[string]gateway.BackendDecision{}, nil
}

func (b *benchGatewayBackend) Stats() (gateway.BackendStats, error) {
	return gateway.BackendStats{ReachableSites: 1}, nil
}

const gatewayBenchJobs = 2000
const gatewayBenchWorkers = 8

// gatewayAckFsyncs is how many slow (p99) fsyncs the median ack may cost,
// on top of one joblog.CommitWindow, before CompareReports says the ack
// waits on something that is not the disk. The commit that still slept 2 ms
// in front of every fsync, twice per ack, read 5.5 ms against a budget of
// 4.0 ms; eight workers driving the paced log read about one window.
const gatewayAckFsyncs = 3.0

// RunGatewayBench drives gatewayBenchJobs submissions through a real
// gateway (write-ahead log on the local filesystem, fsync on) from
// gatewayBenchWorkers concurrent clients and reports throughput and tail
// latencies.
func RunGatewayBench() (*GatewayBench, error) {
	dir, err := os.MkdirTemp("", "rtds-gwbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var fsyncMu sync.Mutex
	var fsyncs metrics.Sample
	srv, err := gateway.New(gateway.Options{
		Tenants: map[string]gateway.Quota{"bench": {Rate: 1e9, Burst: 1e9}},
		Backend: &benchGatewayBackend{},
		LogPath: filepath.Join(dir, "gateway.wal"),
		Log: joblog.Options{OnSync: func(d time.Duration) {
			fsyncMu.Lock()
			fsyncs.Add(d.Seconds())
			fsyncMu.Unlock()
		}},
		PollInterval: time.Hour, // the poller is idle; this bench is the submit path
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	body := `{"tenant":"bench","deadline":1000,"graph":{"name":"b","tasks":[{"id":1,"complexity":5},{"id":2,"complexity":3}],"edges":[{"from":1,"to":2,"volume":1}]}}`
	perWorker := gatewayBenchJobs / gatewayBenchWorkers
	latencies := make([][]float64, gatewayBenchWorkers)
	errs := make([]error, gatewayBenchWorkers)
	var wg sync.WaitGroup
	start := time.Now() //lint:allow wallclock -- wall-time measurement of gateway throughput; never enters simulation state
	for w := 0; w < gatewayBenchWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
				rec := httptest.NewRecorder()
				t0 := time.Now() //lint:allow wallclock -- per-request latency sample
				srv.ServeHTTP(rec, req)
				latencies[w] = append(latencies[w], time.Since(t0).Seconds()) //lint:allow wallclock -- wall-time latency sample; never enters simulation state
				if rec.Code != 202 {
					errs[w] = fmt.Errorf("gateway bench: submit status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds() //lint:allow wallclock -- wall-time throughput denominator; never enters simulation state
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var all metrics.Sample
	for _, worker := range latencies {
		for _, v := range worker {
			all.Add(v)
		}
	}
	fsyncMu.Lock()
	defer fsyncMu.Unlock()
	return &GatewayBench{
		Jobs:              gatewayBenchJobs,
		Workers:           gatewayBenchWorkers,
		SubmissionsPerSec: float64(gatewayBenchJobs) / wall,
		AcceptP50:         all.Percentile(50),
		AcceptP99:         all.Percentile(99),
		FsyncP99:          fsyncs.Percentile(99),
		FsyncBatches:      fsyncs.N(),
	}, nil
}
