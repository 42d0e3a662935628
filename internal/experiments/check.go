package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/determinism"
	"repro/internal/joblog"
)

// ratioTolerance bounds acceptable guarantee-ratio drift in the regression
// gate. The suite is deterministic — same code, same seed, same table — so
// anything beyond float formatting noise is a behavior change that must be
// accompanied by a regenerated baseline.
const ratioTolerance = 1e-9

// CompareReports checks a freshly-run suite report against the committed
// baseline (the cmd/rtds-bench -check gate):
//
//   - every baseline experiment must be present with the same row count;
//   - every per-experiment guarantee ratio must match to within float
//     formatting noise — the suite is seeded and deterministic, so drift
//     means the protocol's behavior changed and the baseline must be
//     regenerated deliberately;
//   - suite throughput (events/sec) must not regress by more than
//     evpsTolerance (0.25 = fail when more than 25% slower).
//
// All problems are reported together so one CI run shows the full damage.
func CompareReports(baseline, current BenchReport, evpsTolerance float64) error {
	var problems []string
	if baseline.Size != current.Size {
		problems = append(problems, fmt.Sprintf(
			"suite size %q does not match the baseline's %q", current.Size, baseline.Size))
	}
	cur := make(map[string]BenchExperiment, len(current.Experiments))
	for _, e := range current.Experiments {
		cur[fmt.Sprintf("%s@%d", e.Name, e.Seed)] = e
	}
	base := make(map[string]bool, len(baseline.Experiments))
	for _, b := range baseline.Experiments {
		base[fmt.Sprintf("%s@%d", b.Name, b.Seed)] = true
	}
	// Symmetric coverage: an experiment the run produced but the baseline
	// never pinned means the suite grew without regenerating the baseline —
	// exactly the change most likely to move ratios unguarded.
	for _, e := range current.Experiments {
		if key := fmt.Sprintf("%s@%d", e.Name, e.Seed); !base[key] {
			problems = append(problems, fmt.Sprintf(
				"experiment %s absent from the baseline (regenerate it)", key))
		}
	}
	for _, b := range baseline.Experiments {
		key := fmt.Sprintf("%s@%d", b.Name, b.Seed)
		c, ok := cur[key]
		if !ok {
			problems = append(problems, fmt.Sprintf("experiment %s missing from the run", key))
			continue
		}
		if c.Rows != b.Rows {
			problems = append(problems, fmt.Sprintf(
				"%s: %d table rows, baseline has %d", key, c.Rows, b.Rows))
		}
		for _, col := range determinism.SortedKeys(b.GuaranteeRatios) {
			want := b.GuaranteeRatios[col]
			got, ok := c.GuaranteeRatios[col]
			if !ok {
				problems = append(problems, fmt.Sprintf(
					"%s: ratio column %q missing from the run", key, col))
				continue
			}
			if math.Abs(got-want) > ratioTolerance {
				problems = append(problems, fmt.Sprintf(
					"%s: guarantee ratio %q drifted %+.6f (baseline %.6f, run %.6f)",
					key, col, got-want, want, got))
			}
		}
		for _, col := range determinism.SortedKeys(c.GuaranteeRatios) {
			if _, ok := b.GuaranteeRatios[col]; !ok {
				problems = append(problems, fmt.Sprintf(
					"%s: ratio column %q absent from the baseline (regenerate it)", key, col))
			}
		}
	}
	// Hot-path allocation budget: allocs/op is deterministic for a given Go
	// release, so a count above the baseline is a regression, full stop.
	// Going below the baseline passes (an improvement should prompt a
	// deliberate baseline regeneration, not block the PR that earned it).
	// ns/op and bytes/op are recorded but never gated — wall time is
	// hardware, and bytes/op follows allocs/op anyway.
	curMicro := make(map[string]MicroBench, len(current.Micro))
	for _, m := range current.Micro {
		curMicro[m.Name] = m
	}
	for _, b := range baseline.Micro {
		c, ok := curMicro[b.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf(
				"micro-benchmark %s missing from the run", b.Name))
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			problems = append(problems, fmt.Sprintf(
				"%s: %d allocs/op, baseline pins %d — hot-path allocation regression",
				b.Name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	if len(baseline.Micro) > 0 {
		base := make(map[string]bool, len(baseline.Micro))
		for _, b := range baseline.Micro {
			base[b.Name] = true
		}
		for _, m := range current.Micro {
			if !base[m.Name] {
				problems = append(problems, fmt.Sprintf(
					"micro-benchmark %s absent from the baseline (regenerate it)", m.Name))
			}
		}
	}
	// Kernel scaling curve. Two unconditional checks — the storm's event
	// count is deterministic and partition-count-independent, so any drift
	// is a kernel correctness bug, not noise. The speedup floor binds only
	// on machines with enough cores to express one: the committed baseline
	// may have been measured on fewer cores than the gate runs on (or vice
	// versa), so the floor reads the *current* machine's curve.
	if baseline.Kernel != nil {
		if current.Kernel == nil {
			problems = append(problems, "kernel benchmark section missing from the run")
		} else {
			k := current.Kernel
			for _, p := range k.Points[1:] {
				if p.Events != k.Points[0].Events {
					problems = append(problems, fmt.Sprintf(
						"kernel: %d workers processed %d events, 1 worker %d — partition-count determinism broken",
						p.Workers, p.Events, k.Points[0].Events))
				}
			}
			if b := baseline.Kernel; len(b.Points) > 0 && len(k.Points) > 0 &&
				k.Points[0].Events != b.Points[0].Events {
				problems = append(problems, fmt.Sprintf(
					"kernel: storm processed %d events, baseline pins %d — the workload changed (regenerate the baseline)",
					k.Points[0].Events, b.Points[0].Events))
			}
			if k.NumCPU >= kernelSpeedupCores {
				best := 0.0
				for _, p := range k.Points {
					if p.Workers >= kernelSpeedupCores && p.Speedup > best {
						best = p.Speedup
					}
				}
				if best < kernelSpeedupFloor {
					problems = append(problems, fmt.Sprintf(
						"kernel: best speedup %.2fx at >=%d workers on a %d-core machine, floor is %.1fx",
						best, kernelSpeedupCores, k.NumCPU, kernelSpeedupFloor))
				}
			}
		}
	} else if current.Kernel != nil {
		problems = append(problems,
			"kernel benchmark section absent from the baseline (regenerate it)")
	}
	// Gateway section: the workload shape is pinned exactly (a changed
	// job count or client concurrency is a different benchmark and needs
	// a regenerated baseline); the measurements themselves are wall-clock
	// and only sanity-checked — zero throughput or a zero-batch fsync
	// histogram means the bench silently broke, not that hardware got
	// slower. One comparison of two of this run's own numbers is gated,
	// because it holds on any machine: an ack waits at most for the log's
	// commit window to end, for the fsync in flight when its record was
	// written and for the next one, so its median stays within the window
	// plus a small multiple of a slow fsync unless something else (a timer
	// in front of every fsync, a second waited-on record) is back on the
	// path.
	if baseline.Gateway != nil {
		if current.Gateway == nil {
			problems = append(problems, "gateway benchmark section missing from the run")
		} else {
			g := current.Gateway
			if g.Jobs != baseline.Gateway.Jobs || g.Workers != baseline.Gateway.Workers {
				problems = append(problems, fmt.Sprintf(
					"gateway: workload %d jobs / %d workers, baseline pins %d / %d — the benchmark changed (regenerate the baseline)",
					g.Jobs, g.Workers, baseline.Gateway.Jobs, baseline.Gateway.Workers))
			}
			if g.SubmissionsPerSec <= 0 || g.AcceptP99 <= 0 {
				problems = append(problems, fmt.Sprintf(
					"gateway: degenerate measurements (%.0f submissions/sec, p99 %.6fs)",
					g.SubmissionsPerSec, g.AcceptP99))
			}
			if g.FsyncBatches <= 0 {
				problems = append(problems,
					"gateway: no fsync batches recorded — the write-ahead log is not syncing")
			}
			if g.FsyncBatches >= g.Jobs {
				problems = append(problems, fmt.Sprintf(
					"gateway: %d fsync batches for %d jobs — group commit is not batching",
					g.FsyncBatches, g.Jobs))
			}
			if budget := joblog.CommitWindow.Seconds() + gatewayAckFsyncs*g.FsyncP99; g.FsyncP99 > 0 && g.AcceptP50 > budget {
				problems = append(problems, fmt.Sprintf(
					"gateway: accept p50 %.2f ms exceeds %.2f ms (the %.1f ms commit window + %gx the fsync p99 of %.2f ms) — the ack waits on something that is not the disk",
					g.AcceptP50*1e3, budget*1e3, joblog.CommitWindow.Seconds()*1e3, gatewayAckFsyncs, g.FsyncP99*1e3))
			}
		}
	} else if current.Gateway != nil {
		problems = append(problems,
			"gateway benchmark section absent from the baseline (regenerate it)")
	}
	// Routing section: fully deterministic (seeded topology, seeded
	// workload, deterministic DES), so everything is gated exactly. Two
	// structural invariants bind regardless of the baseline: the per-site
	// table-bytes curve must grow sub-linearly in the site count — the
	// hierarchy's whole point — and msgs/job at the largest sweep point
	// must not exceed what the baseline pins (cheaper passes; regenerate
	// the baseline to bank an improvement).
	if baseline.Routing != nil {
		if current.Routing == nil {
			problems = append(problems, "routing benchmark section missing from the run")
		} else {
			r := current.Routing
			b := baseline.Routing
			if len(r.Points) != len(b.Points) {
				problems = append(problems, fmt.Sprintf(
					"routing: %d sweep points, baseline pins %d — the benchmark changed (regenerate the baseline)",
					len(r.Points), len(b.Points)))
			}
			for i := 1; i < len(r.Points); i++ {
				prev, cur := r.Points[i-1], r.Points[i]
				if prev.TableBytes <= 0 || prev.Sites <= 0 {
					problems = append(problems, fmt.Sprintf(
						"routing: degenerate point at %d sites (%d table bytes)", prev.Sites, prev.TableBytes))
					continue
				}
				growth := float64(cur.TableBytes) / float64(prev.TableBytes)
				linear := float64(cur.Sites) / float64(prev.Sites)
				if growth >= 0.75*linear {
					problems = append(problems, fmt.Sprintf(
						"routing: table bytes grew %.2fx from %d to %d sites (linear would be %.2fx) — per-site state is no longer sub-linear",
						growth, prev.Sites, cur.Sites, linear))
				}
			}
			for i := range b.Points {
				if i >= len(r.Points) {
					break
				}
				bp, cp := b.Points[i], r.Points[i]
				if cp.Sites != bp.Sites || r.Jobs != b.Jobs || r.Seed != b.Seed {
					problems = append(problems, fmt.Sprintf(
						"routing: point %d is %d sites (seed %d, %d jobs), baseline pins %d sites (seed %d, %d jobs) — regenerate the baseline",
						i, cp.Sites, r.Seed, r.Jobs, bp.Sites, b.Seed, b.Jobs))
					continue
				}
				if math.Abs(cp.GuaranteeRatio-bp.GuaranteeRatio) > ratioTolerance {
					problems = append(problems, fmt.Sprintf(
						"routing: guarantee ratio at %d sites drifted %+.6f (baseline %.6f, run %.6f)",
						cp.Sites, cp.GuaranteeRatio-bp.GuaranteeRatio, bp.GuaranteeRatio, cp.GuaranteeRatio))
				}
				if i == len(b.Points)-1 && cp.MsgsPerJob > bp.MsgsPerJob+ratioTolerance {
					problems = append(problems, fmt.Sprintf(
						"routing: msgs/job at %d sites regressed to %.3f (baseline %.3f)",
						cp.Sites, cp.MsgsPerJob, bp.MsgsPerJob))
				}
			}
		}
	} else if current.Routing != nil {
		problems = append(problems,
			"routing benchmark section absent from the baseline (regenerate it)")
	}
	if evpsTolerance > 0 && baseline.EventsPerSec > 0 && current.EventsPerSec > 0 {
		floor := baseline.EventsPerSec * (1 - evpsTolerance)
		if current.EventsPerSec < floor {
			problems = append(problems, fmt.Sprintf(
				"throughput regressed: %.0f events/sec vs baseline %.0f (floor %.0f at %.0f%% tolerance)",
				current.EventsPerSec, baseline.EventsPerSec, floor, evpsTolerance*100))
		}
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("benchmark regression gate failed:\n  %s", strings.Join(problems, "\n  "))
}
