package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The parent is the only load generator and stopwatch; each workload's
// system under test runs in a child of the same binary, so the child's
// rusage and runtime statistics exclude the generator. The two talk in JSON
// lines: the parent writes the child's input on stdin, the child answers
// with a "ready" line (servers only) and a final "result" line. A server
// child runs until the parent sends its stop line.

// childMsg is one line from child to parent.
type childMsg struct {
	Event  string          `json:"event"` // "ready" or "result"
	Addr   string          `json:"addr,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// child is a running system-under-test process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// startChild launches `<this binary> -child <workload>` and sends it input.
func startChild(workload string, input any) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", workload)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20)}
	if err := c.send(input); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

func (c *child) send(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = c.stdin.Write(append(data, '\n'))
	return err
}

// recv reads the child's next line, which must be of the wanted event.
func (c *child) recv(want string) (childMsg, error) {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return childMsg{}, fmt.Errorf("child exited before its %s line: %w", want, err)
	}
	var m childMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return childMsg{}, fmt.Errorf("child wrote a malformed line: %w", err)
	}
	if m.Error != "" {
		return m, fmt.Errorf("child: %s", m.Error)
	}
	if m.Event != want {
		return m, fmt.Errorf("child sent %q, want %q", m.Event, want)
	}
	return m, nil
}

// finish reads the result line into out and waits for the child to exit.
func (c *child) finish(out any) error {
	m, err := c.recv("result")
	if err != nil {
		c.kill()
		return err
	}
	c.stdin.Close()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("child exit: %w", err)
	}
	return json.Unmarshal(m.Result, out)
}

// kill stops a child on an error path and waits until it has ended.
func (c *child) kill() {
	c.stdin.Close()
	_ = c.cmd.Process.Kill() // already-exited children report an error; nothing to do about it
	_ = c.cmd.Wait()
}

// runChild runs a one-shot child: input in, result out.
func runChild(workload string, input, out any) error {
	c, err := startChild(workload, input)
	if err != nil {
		return err
	}
	return c.finish(out)
}

// ---------------------------------------------------------------------------
// Child side

// childIO is the child's end of the line protocol.
type childIO struct {
	in  *bufio.Reader
	out *bufio.Writer
}

func newChildIO() *childIO {
	return &childIO{in: bufio.NewReaderSize(os.Stdin, 1<<20), out: bufio.NewWriter(os.Stdout)}
}

// read decodes the next input line into v.
func (c *childIO) read(v any) error {
	line, err := c.in.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("reading parent input: %w", err)
	}
	return json.Unmarshal(line, v)
}

func (c *childIO) write(m childMsg) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if _, err := c.out.Write(append(data, '\n')); err != nil {
		return err
	}
	return c.out.Flush()
}

func (c *childIO) ready(addr string) error {
	return c.write(childMsg{Event: "ready", Addr: addr})
}

func (c *childIO) result(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.write(childMsg{Event: "result", Result: data})
}

// startProfile starts a CPU profile of this child into path and returns the
// function that ends it (safe to call twice); with an empty path both are
// no-ops. The untraced pass never profiles.
func startProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close() // the parent fails to decode a profile that was cut short
		})
	}, nil
}

// usage is a snapshot of the child's own resource use.
type usage struct {
	CPU      time.Duration // user + system
	MaxRSSMB float64
	Mem      runtime.MemStats
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	u := usage{CPU: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), MaxRSSMB: peakRSSMB()}
	if u.MaxRSSMB == 0 {
		// No /proc: fall back on ru_maxrss (kilobytes on Linux).
		u.MaxRSSMB = float64(ru.Maxrss) / 1024
	}
	runtime.ReadMemStats(&u.Mem)
	return u
}

// peakRSSMB is this process's own resident peak: VmHWM of /proc/self/status,
// 0 when it cannot be read. ru_maxrss does not serve: exec folds the spawning
// process's peak into the child's (the parent's address space is the child's
// until exec), so a child of a 200 MB generator reports at least 200 MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(data), "VmHWM:")
	if !ok {
		return 0
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 || fields[1] != "kB" {
		return 0
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// childCost is the resource use of a child's measured phase (set-up
// excluded), as every workload reports it.
type childCost struct {
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	CPUMs      float64 `json:"cpu_ms"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	AllocKB    float64 `json:"alloc_kb"`
	Allocs     float64 `json:"allocs"`
	GCCPUShare float64 `json:"gc_cpu_share"`
	HeapEndMB  float64 `json:"heap_end_mb"`
}

func costBetween(ready, end usage, setup, run time.Duration) childCost {
	return childCost{
		SetupS:     setup.Seconds(),
		RunS:       run.Seconds(),
		CPUMs:      float64(end.CPU-ready.CPU) / float64(time.Millisecond),
		PeakRSSMB:  end.MaxRSSMB,
		AllocKB:    float64(end.Mem.TotalAlloc-ready.Mem.TotalAlloc) / 1024,
		Allocs:     float64(end.Mem.Mallocs - ready.Mem.Mallocs),
		GCCPUShare: end.Mem.GCCPUFraction,
		HeapEndMB:  float64(end.Mem.HeapAlloc) / (1 << 20),
	}
}

// goMetrics fills the go.* layer from a child's cost.
func (c childCost) goMetrics(m metricSet, jobs int) {
	if jobs > 0 {
		m["go.alloc_kb_per_job"] = c.AllocKB / float64(jobs)
		m["go.allocs_per_job"] = c.Allocs / float64(jobs)
	}
	m["go.gc_cpu_share"] = c.GCCPUShare
	m["go.heap_end_mb"] = c.HeapEndMB
}
