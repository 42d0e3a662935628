// Command benchmark is the one benchmark of the whole stack: four workloads
// (two on the discrete-event simulator, two on the deployed gateway/node
// path), eight end-to-end metrics every workload reports, and a per-layer
// budget taken from outside the program through its public extension
// points. BENCHMARK.json at the repository root names the workloads and the
// metrics; README.md in this directory defines them.
//
// The driver's form (one run, one JSON object on the last line of stdout):
//
//	go run ./benchmark --workload des_std --seed 1 --seconds 20 --trace 0
//
// Without --workload every workload runs in turn; -traced adds the
// per-layer pass, -repeats N runs N rounds of them, -json FILE writes the result
// set (-record also appends it to benchmark/history.jsonl), and
// -agree A.json B.json compares two result sets of one commit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var (
	flagChild    = flag.String("child", "", "internal: run as the system-under-test child of this workload")
	flagWorkload = flag.String("workload", "", "run only this workload (des_std|des_wide|live_open|gateway_ingest)")
	flagSeed     = flag.Int64("seed", 1, "seed of topology and workload generation (in the parent)")
	flagSeconds  = flag.Int("seconds", defaultSeconds, "how long one run measures")
	flagTrace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	flagTraced   = flag.Bool("traced", false, "with no -workload: also run each workload's traced pass")
	flagRepeats  = flag.Int("repeats", 1, "run this many rounds over the workloads and report median [min, max]")
	flagSmoke    = flag.Bool("smoke", false, "tiny sizes: exercises every path in a few seconds, measures nothing")
	flagJSON     = flag.String("json", "", "write the result set to this file")
	flagRecord   = flag.Bool("record", false, "with -json: also append one line per run to <out>/../history.jsonl")
	flagAgree    = flag.Bool("agree", false, "compare two result sets: benchmark -agree A.json B.json")
	flagOut      = flag.String("out", "benchmark/out", "directory for spans, profiles and scratch files")
	flagSpec     = flag.Bool("spec", false, "print BENCHMARK.json as this program defines it, and exit")
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// runOptions is what one run of one workload is asked to do.
type runOptions struct {
	seed    int64
	seconds int
	traced  bool
	smoke   bool
	outDir  string
}

func (o runOptions) outPath(name string) string { return filepath.Join(o.outDir, name) }

// record is the result of one run of one workload.
type record struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   int            `json:"seconds"`
	Traced    bool           `json:"traced"`
	Smoke     bool           `json:"smoke,omitempty"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"ops_attempted"`
	Failed    int            `json:"ops_failed"`
	Refused   int            `json:"ops_refused,omitempty"` // the 429s among Failed
	Problems  []string       `json:"problems,omitempty"`
	Notes     []string       `json:"notes,omitempty"`
	E2E       metricSet      `json:"end_to_end,omitempty"`
	Layer     metricSet      `json:"per_layer,omitempty"`
	Sizes     map[string]any `json:"sizes,omitempty"`
	Machine   machine        `json:"machine"`
	WallS     float64        `json:"wall_s"`
}

// machine tags every record with where and what it was measured on.
type machine struct {
	NumCPU int    `json:"num_cpu"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
	When   string `json:"when"`
}

func thisMachine() machine {
	// Outside a git checkout (the driver's) the commit is unknown; with
	// uncommitted changes it is the parent's, marked dirty.
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
			commit += "+dirty"
		}
	}
	return machine{
		NumCPU: runtime.NumCPU(), Go: runtime.Version(), Commit: commit,
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

func newRecord(workload string, opt runOptions) *record {
	return &record{
		Workload: workload, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.traced,
		Smoke: opt.smoke, Layer: metricSet{},
	}
}

// problems notes correctness failures; any makes the run incorrect.
func (r *record) problems(msgs ...string) { r.Problems = append(r.Problems, msgs...) }

// note records something a reader of the run should see that does not by
// itself make the run incorrect: a failed operation and why it failed.
func (r *record) note(msg string) {
	if len(r.Notes) < maxNotes {
		r.Notes = append(r.Notes, msg)
	}
}

const maxNotes = 20

// maxFailedShare is the share of operations that may fail (each counted in
// ops_failed and explained in a note) before the run as a whole is incorrect.
// Failed operations are: a refused or unanswered request, a job not decided
// by the end of the drain, a job whose guarantee the run broke. A refusal
// (429) is a failed operation and misses every latency limit, but it is the
// gateway's backpressure answering as designed, so refusals alone do not make
// a run incorrect: on a fresh cluster one machine stall of 150 ms lifts a
// node's all-time p99 (its maximum, until it has decided a hundred jobs)
// above the shorter deadlines, and the gate refuses those for the rest of
// the run, 41 of 800 in the one case seen in some hundred runs.
const maxFailedShare = 0.005

// runWorkload runs one workload once.
func runWorkload(workload string, opt runOptions) (*record, error) {
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	if opt.traced {
		// A traced run rewrites its span file.
		if err := os.Remove(opt.outPath(workload + ".spans.jsonl")); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	start := time.Now()
	var rec *record
	var err error
	switch workload {
	case wlDesStd, wlDesWide:
		rec, err = runDES(workload, opt)
	case wlLive:
		rec, err = runLive(opt)
	case wlIngest:
		rec, err = runIngest(opt)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	rec.WallS = time.Since(start).Seconds()
	if rec.Attempted < 1 {
		rec.problems("no operation was attempted")
	}
	if errs := rec.Failed - rec.Refused; float64(errs) > maxFailedShare*float64(rec.Attempted) {
		rec.problems(fmt.Sprintf("%d of %d operations failed other than by refusal, more than %.1f%%", errs, rec.Attempted, 100*maxFailedShare))
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, nil
}

// contractLine is the last line of a driver run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *record) contract() contractLine {
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed}
	if r.Traced {
		line.Metrics = r.Layer.complete(perLayer)
	} else {
		line.Metrics = r.E2E.complete(endToEnd)
	}
	return line
}

// print writes the human-readable report of one record.
func (r *record) print() {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Printf("== %s  seed=%d seconds=%d %s  wall=%.1fs  ops_attempted=%d ops_failed=%d (refused %d) correct=%v\n",
		r.Workload, r.Seed, r.Seconds, pass, r.WallS, r.Attempted, r.Failed, r.Refused, r.Correct)
	if sizes, err := json.Marshal(r.Sizes); err == nil {
		fmt.Printf("   sizes %s\n", sizes)
	}
	metrics := r.contract().Metrics
	for _, name := range sortedNames(metrics) {
		fmt.Printf("   %-40s %16.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	for _, n := range r.Notes {
		fmt.Printf("   NOTE: %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
}

func main() {
	flag.Parse()
	os.Exit(realMain())
}

func realMain() int {
	if *flagChild != "" {
		if err := childMain(*flagChild); err != nil {
			// The parent reads the error from the protocol line; stderr is
			// for a human running the child by hand.
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			return 1
		}
		return 0
	}
	if *flagSpec {
		data, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(data))
		return 0
	}
	if *flagAgree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -agree A.json B.json")
			return 2
		}
		return agreeMain(flag.Arg(0), flag.Arg(1))
	}
	if *flagSeconds < 1 || *flagSeconds > 60 || *flagRepeats < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be in [1,60] and -repeats at least 1")
		return 2
	}
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// pass is one (workload, traced?) combination to run.
type pass struct {
	workload string
	traced   bool
}

// benchMain runs the requested passes. With -workload that is one pass, the
// driver's form, and the contract line is the last thing printed; without,
// it is every workload untraced (and traced on request), with a summary.
func benchMain() error {
	var passes []pass
	if *flagWorkload != "" {
		if !knownWorkload(*flagWorkload) {
			return fmt.Errorf("unknown workload %q", *flagWorkload)
		}
		passes = []pass{{*flagWorkload, *flagTrace == 1}}
	} else {
		for _, w := range workloads {
			passes = append(passes, pass{w.Name, false})
			if *flagTraced || *flagTrace == 1 {
				passes = append(passes, pass{w.Name, true})
			}
		}
	}

	opt := runOptions{seed: *flagSeed, seconds: *flagSeconds, smoke: *flagSmoke, outDir: *flagOut}
	set := resultSet{Machine: thisMachine()}
	// Repeats are rounds over all the passes, not runs of one pass in a row:
	// what a run follows moves its CPU time (live_open costs 5.1 ms per job
	// after a live run and 6.7 after a DES run), so every repeat of a pass
	// follows the same predecessor, as in the driver's rounds.
	for i := 0; i < *flagRepeats; i++ {
		for _, p := range passes {
			opt.traced = p.traced
			rec, err := runWorkload(p.workload, opt)
			if err != nil {
				return err
			}
			rec.Machine = set.Machine
			rec.print()
			set.Records = append(set.Records, rec)
		}
	}
	if err := set.save(opt); err != nil {
		return err
	}
	if *flagWorkload == "" {
		set.summarize()
	} else {
		line, err := json.Marshal(set.Records[len(set.Records)-1].contract())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !set.correct() {
		return fmt.Errorf("at least one run was incorrect")
	}
	return nil
}

// childMain dispatches the system-under-test side.
func childMain(workload string) error {
	pio := newChildIO()
	var err error
	switch workload {
	case wlDesStd, wlDesWide:
		err = desChild(pio)
	case wlLive:
		err = liveChild(pio)
	case wlIngest:
		err = ingestChild(pio)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		// Best effort: the parent may already be gone.
		_ = pio.write(childMsg{Error: err.Error()})
	}
	return err
}
