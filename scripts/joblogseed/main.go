// Command joblogseed writes a gateway job log holding a decided history, the
// log a long-running gateway leaves behind, and prints how many graph bytes
// it appended: a floor under the bytes the history took to write. The log
// compacts itself as the history goes in, as a gateway's does. The gateway
// soak starts rtds-gateway on such a log, so that the gateway restarts on a
// checkpoint, and checks at the end that the log is smaller than what was
// appended to it.
//
// Usage (from the repository root):
//
//	go run ./scripts/joblogseed PATH JOBS
//
// The jobs are g1 … gJOBS of tenant "history", each submitted, forwarded
// and decided; a gateway that restarts on the log numbers its jobs after
// them.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/joblog"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "joblogseed:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: joblogseed PATH JOBS")
	}
	jobs, err := strconv.Atoi(args[1])
	if err != nil || jobs < 1 {
		return fmt.Errorf("JOBS must be a positive count, not %q", args[1])
	}
	l, _, err := joblog.Open(args[0], joblog.Options{NoSync: true})
	if err != nil {
		return err
	}
	graph := json.RawMessage(`{"name":"history","tasks":[{"id":1,"complexity":1}],"edges":[],"note":"` +
		strings.Repeat("h", 900) + `"}`)
	for i := 1; i <= jobs; i++ {
		id, cluster := "g"+strconv.Itoa(i), "h"+strconv.Itoa(i)+"@0"
		if err := l.AppendNoWait(
			joblog.Record{Type: joblog.TypeSubmitted, ID: id, Seq: uint64(i), Tenant: "history", Deadline: 100, Graph: graph},
			joblog.Record{Type: joblog.TypeForwarded, ID: id, Tenant: "history", ClusterID: cluster},
			joblog.Record{Type: joblog.TypeDecided, ID: id, Tenant: "history", ClusterID: cluster, Outcome: "rejected", DecisionLatency: 1},
		); err != nil {
			l.Close()
			return err
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	fmt.Println(jobs * len(graph))
	return nil
}
