package main

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nodeapi"
)

// journal reads one node's decision journal the way the gateway does: it
// keeps a cursor and the boot token of the process the cursor counts in, so
// a read carries the decisions made since the last one and nothing else.
type journal struct {
	addr    string
	boot    string
	cursor  int
	decided map[string]core.JobStatus // the answering process's decisions, by job ID
}

// read pages through the decisions made since the last read. A new boot
// token means the node restarted: the dead process's decisions are dropped,
// since its jobs died with it, and the new one's are read from 0. A read
// that fails forgets the node the same way, so that what is kept is always
// what the node answering now remembers.
func (j *journal) read(client *http.Client) error {
	for {
		reply, err := nodeapi.ReadJournal(context.Background(), client, "http://"+j.addr, j.cursor, j.boot, 0)
		if err != nil {
			*j = journal{addr: j.addr}
			return err
		}
		if reply.Boot != j.boot || j.decided == nil {
			j.decided = make(map[string]core.JobStatus)
		}
		j.boot, j.cursor = reply.Boot, reply.Next
		for _, st := range reply.Jobs {
			j.decided[st.ID] = st
		}
		if len(reply.Jobs) == 0 {
			return nil
		}
	}
}

// nodeTotals is what rtds-load reads of a node's /metrics.
type nodeTotals struct {
	messages, bytes, dropped int64
	violations, disruptions  int
	jobs, decided            int
	enrollAcks               int64 // rtds.enroll-ack messages sent: enrollments answered
}

// scrapeNode reads a node's totals from its GET /metrics.
func scrapeNode(client *http.Client, addr string) (nodeTotals, error) {
	var t nodeTotals
	series, err := getMetrics(client, "http://"+addr+"/metrics")
	if err != nil {
		return t, err
	}
	for _, s := range series {
		switch s.Name {
		case "rtds_node_messages_total":
			t.messages = int64(s.Value)
		case "rtds_node_bytes_total":
			t.bytes = int64(s.Value)
		case "rtds_node_dropped_total":
			t.dropped = int64(s.Value)
		case "rtds_node_violations_total":
			t.violations = int(s.Value)
		case "rtds_node_disruptions_total":
			t.disruptions = int(s.Value)
		case "rtds_node_jobs_total":
			t.jobs = int(s.Value)
		case "rtds_node_jobs_decided_total":
			t.decided = int(s.Value)
		case "rtds_node_messages_by_kind_total":
			if s.Labels["kind"] == "rtds.enroll-ack" {
				t.enrollAcks = int64(s.Value)
			}
		}
	}
	return t, nil
}

// getMetrics GETs a Prometheus exposition (a node's or the gateway's) and
// parses it.
func getMetrics(client *http.Client, u string) ([]metrics.Series, error) {
	resp, err := client.Get(u)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", u, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	series, err := metrics.ParseText(data)
	if err != nil {
		return nil, fmt.Errorf("%s: invalid Prometheus exposition: %w", u, err)
	}
	return series, nil
}
