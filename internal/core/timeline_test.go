package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core/membership"
	"repro/internal/core/policy"
	"repro/internal/daggen"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// TestTimelineDigestPinned pins the order of every protocol fact, not only
// their counts: five traced DES cells, each hashed over its rendered
// Events(). The cells cover the flat protocol under load, a sphere as wide
// as the network, an enroll order that is not ID order (k-redundant), the
// preemptive scheduler, and a lossy, crashing cluster with membership armed
// — which is where phase timeouts, abort retransmissions and lock leases
// happen. A change that moves one message, timer or send order moves a
// digest.
func TestTimelineDigestPinned(t *testing.T) {
	type cell struct {
		name   string
		sites  int
		load   float64
		tune   func(*Config)
		digest string
	}
	cells := []cell{
		{"rtds-load-0.8", 16, 0.8, func(*Config) {}, "37bc1ebb8560165cb8af8d13e236b7b3ab4abbe2e56dbe15d0eee59deb10ef09"},
		{"broadcast-32", 32, 0.6, func(c *Config) { c.Radius = 32 }, "a158cfc6204a83d9d82c9d01dce11f556d4ef670c5f467d4b52eda2c58ae1789"},
		{"k-redundant-6", 16, 0.8, func(c *Config) { c.Policies.Sphere = policy.KRedundant{K: 6} }, "1ad9f996b277f1cc9ab450dccfcbe856115478a6ef478b806d93a4467207778a"},
		{"preemptive", 16, 0.8, func(c *Config) { c.Preemptive = true }, "345af9bf3da918e21dbf758026a1eead1ce4a7a42d3bc10b8836e1808cb989a9"},
		{"loss-crash-membership", 16, 0.6, func(c *Config) {
			c.Faults = &simnet.FaultPlan{Seed: 5, Loss: 0.15, MaxJitter: 0.05,
				Crashes: []simnet.Crash{{Site: 3, At: 20, For: 25}, {Site: 9, At: 40}}}
			c.Membership = membership.Config{Enabled: true, SuspectAfter: 2, HeartbeatEvery: 2.0 / 3}
		}, "572b6f1fd2be4927568e01ce1c4019714a99fe303ea367749b1483443a906fe9"},
	}
	const horizon = 150
	seen := map[EventKind]int{}
	for i, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.TraceEvents = true
			tc.tune(&cfg)
			topo := graph.RandomConnected(tc.sites, 3, graph.DelayRange{Min: 0.05, Max: 0.3}, int64(i+1))
			spec := workload.Spec{Sites: tc.sites, Horizon: horizon, TaskSize: 8,
				Params: daggen.Params{MinComplexity: 0.5, MaxComplexity: 5}, Tightness: 2.5, Seed: int64(i + 1)}
			spec.RatePerSite = workload.RateForLoad(tc.load, workload.ExpectedWorkPerJob(spec, 200))
			arrivals, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			c := mustCluster(t, topo, cfg)
			for _, a := range arrivals {
				if _, err := c.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			events := c.Events()
			for _, e := range events {
				seen[e.Kind]++
				h.Write([]byte(e.String()))
				h.Write([]byte{'\n'})
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("timeline digest %s over %d events, pinned %s", got, len(events), tc.digest)
			}
		})
	}
	for _, k := range []EventKind{EvPhaseTimeout, EvAbortRetry, EvLeaseExpired, EvDeferred} {
		if seen[k] == 0 {
			t.Errorf("no %s event in any cell: the pin does not cover that path (%v)", k, seen)
		}
	}
}
