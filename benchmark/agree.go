package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// resultSet is what -json writes: every record of one invocation.
type resultSet struct {
	Machine machine   `json:"machine"`
	Records []*record `json:"records"`
}

func (s *resultSet) correct() bool {
	for _, r := range s.Records {
		if !r.Correct {
			return false
		}
	}
	return true
}

// save writes the set to -json and, with -record, appends one line per run
// to history.jsonl beside the out directory, so the trajectory is data.
func (s *resultSet) save(opt runOptions) error {
	if *flagJSON == "" {
		return nil
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*flagJSON, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !*flagRecord {
		return nil
	}
	f, err := os.OpenFile(filepath.Join(filepath.Dir(opt.outDir), "history.jsonl"),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range s.Records {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// values collects one metric's values over the untraced (end-to-end) or
// traced (per-layer) records of a workload.
func (s *resultSet) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range s.Records {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		set := r.E2E
		if traced {
			set = r.Layer
		}
		if v, ok := set[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// summarize prints, for every end-to-end metric of every workload, the
// median [min, max] over the repeats and their inter-quartile spread as a
// share of the median (what the driver holds against the metric's bound).
func (s *resultSet) summarize() {
	fmt.Println("== end-to-end, median [min, max] over repeats, quartile spread")
	for _, w := range workloads {
		for _, m := range endToEnd {
			v := sample{v: s.values(w.Name, m.Name, false)}
			if v.n() == 0 {
				continue
			}
			fmt.Printf("   %-16s %-18s %14.6g [%.6g, %.6g] %s  n=%d  spread %.1f%% (bound %.0f%%)\n",
				w.Name, m.Name, v.median(), v.min(), v.max(), m.Unit, v.n(), 100*quartileSpread(v.v), 100*m.Bound)
		}
	}
}

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict is -agree's finding for one (workload, metric).
type verdict struct {
	workload, metric, status, detail string
}

// agree compares two result sets of the same commit. An end-to-end median
// that differs by more than the metric's bound is "differs"; a metric whose
// own min-max spread within either set exceeds its bound cannot be resolved
// by these runs and is "unresolved", never passed; an exact count that
// differs between records of the same (workload, seed, seconds, pass) is
// "differs".
func agree(a, b *resultSet) []verdict {
	var out []verdict
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(w.Name, m.Name, false), b.values(w.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := sample{v: va}, sample{v: vb}
			ma, mb := sa.median(), sb.median()
			v := verdict{workload: w.Name, metric: m.Name, status: "agrees"}
			rel := 0.0
			if ma != 0 {
				rel = math.Abs(mb-ma) / math.Abs(ma)
			}
			spread := 0.0
			for _, s := range []*sample{&sa, &sb} {
				if med := s.median(); med != 0 {
					if sp := (s.max() - s.min()) / math.Abs(med); sp > spread {
						spread = sp
					}
				}
			}
			v.detail = fmt.Sprintf("medians %.6g vs %.6g (%.1f%% apart, bound %.0f%%, own spread %.1f%%)",
				ma, mb, 100*rel, 100*m.Bound, 100*spread)
			switch {
			case rel > m.Bound:
				v.status = "differs"
			case spread > m.Bound:
				v.status = "unresolved"
			}
			out = append(out, v)
		}
	}

	// Exact counts, record by record.
	type key struct {
		workload string
		seed     int64
		seconds  int
		traced   bool
	}
	index := make(map[key]*record)
	for _, r := range b.Records {
		index[key{r.Workload, r.Seed, r.Seconds, r.Traced}] = r
	}
	for _, ra := range a.Records {
		if ra.Workload != wlDesStd && ra.Workload != wlDesWide {
			continue // counts repeat exactly only on the simulated clock
		}
		rb := index[key{ra.Workload, ra.Seed, ra.Seconds, ra.Traced}]
		if rb == nil {
			continue
		}
		for _, list := range [][]metricSpec{endToEnd, perLayer} {
			for _, m := range list {
				if !m.Exact {
					continue
				}
				xa, oka := pick(ra, m.Name)
				xb, okb := pick(rb, m.Name)
				if !oka || !okb || xa == xb {
					continue
				}
				out = append(out, verdict{workload: ra.Workload, metric: m.Name, status: "differs",
					detail: fmt.Sprintf("exact count at seed %d: %v vs %v", ra.Seed, xa, xb)})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].status < out[j].status })
	return out
}

func pick(r *record, metric string) (float64, bool) {
	if v, ok := r.E2E[metric]; ok {
		return v, true
	}
	v, ok := r.Layer[metric]
	return v, ok
}

func agreeMain(pathA, pathB string) int {
	a, err := loadResultSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if a.Machine.Commit != b.Machine.Commit {
		fmt.Printf("note: the sets are of different commits (%s, %s); -agree is meant for two sets of one commit\n",
			a.Machine.Commit, b.Machine.Commit)
	}
	bad := 0
	for _, v := range agree(a, b) {
		fmt.Printf("%-10s %-16s %-18s %s\n", v.status, v.workload, v.metric, v.detail)
		if v.status != "agrees" {
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("FAILED: %d metrics differ or are unresolved\n", bad)
		return 1
	}
	fmt.Println("ok: the two sets agree within the benchmark's bounds")
	return 0
}
