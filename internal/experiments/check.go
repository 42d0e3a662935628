package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/determinism"
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
//   - hot-path allocs/op must not exceed the baseline's, the kernel storm
//     must stay deterministic (and scale, where the machine has the cores),
//     and the routing sweep must match, bootstrap message counts and route
//     digests included.
//
// Nothing wall-clock is compared against the baseline: events/sec is a
// reading of the host, and throughput and latency regressions are the
// benchmark's job (go run ./benchmark), which measures them against the
// parent commit with a recorded spread. Sections the baseline carries but
// this report no longer has (a "gateway" block in an older file) are ignored.
//
// All problems are reported together so one CI run shows the full damage.
func CompareReports(baseline, current BenchReport) error {
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
	// Kernel scaling curve. The storm's event count is deterministic and
	// partition-count-independent: RunKernelBench refuses to report a curve
	// whose points disagree, so what is pinned here is the count itself —
	// drift is a kernel correctness bug or a changed workload, not noise.
	// The speedup floor (against the serial engine) binds only
	// on machines with enough cores to express one: the committed baseline
	// may have been measured on fewer cores than the gate runs on (or vice
	// versa), so the floor reads the *current* machine's curve.
	if baseline.Kernel != nil {
		if current.Kernel == nil {
			problems = append(problems, "kernel benchmark section missing from the run")
		} else {
			k := current.Kernel
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
				// A baseline from before these two fields leaves them empty
				// and is compared on the rest.
				if bp.BootstrapMsgs != 0 && cp.BootstrapMsgs != bp.BootstrapMsgs {
					problems = append(problems, fmt.Sprintf(
						"routing: bootstrap at %d sites sent %d messages, baseline pins %d",
						cp.Sites, cp.BootstrapMsgs, bp.BootstrapMsgs))
				}
				if bp.RouteDigest != "" && cp.RouteDigest != bp.RouteDigest {
					problems = append(problems, fmt.Sprintf(
						"routing: route digest at %d sites is %s, baseline pins %s — a route moved",
						cp.Sites, cp.RouteDigest, bp.RouteDigest))
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
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("benchmark regression gate failed:\n  %s", strings.Join(problems, "\n  "))
}
