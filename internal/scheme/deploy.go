package scheme

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/core/policy"
	"repro/internal/graph"
	"repro/internal/mapper"
)

// CoreConfigurer is implemented by schemes built on the RTDS protocol core.
// It exposes the scheme's base configuration so a deployment can run one
// site of the scheme per process (cmd/rtds-node) instead of a whole
// in-process cluster.
type CoreConfigurer interface {
	CoreConfig(topo *graph.Graph) core.Config
}

// CoreConfig implements CoreConfigurer for the registry's RTDS-core
// schemes.
func (s coreScheme) CoreConfig(topo *graph.Graph) core.Config { return s.base(topo) }

// CoreConfig returns the named scheme's core configuration for node-mode
// deployment. Schemes without an RTDS core (fab, oracle) are refused: they
// are baselines of the experiment harness, not deployable protocols.
func CoreConfig(name string, topo *graph.Graph) (core.Config, error) {
	s, ok := Get(name)
	if !ok {
		return core.Config{}, fmt.Errorf("scheme: unknown scheme %q; have %s", name, strings.Join(Names(), ", "))
	}
	cc, ok := s.(CoreConfigurer)
	if !ok {
		return core.Config{}, fmt.Errorf("scheme: %q is not built on the RTDS core and cannot run as a node", name)
	}
	return cc.CoreConfig(topo), nil
}

// Deployable lists, in sorted order, the schemes CoreConfig accepts: the
// ones a node can run.
func Deployable() []string {
	var names []string
	for _, name := range Names() {
		if _, ok := registry[name].(CoreConfigurer); ok {
			names = append(names, name)
		}
	}
	return names
}

// ParsePolicies parses a policy specification of the form
//
//	axis=value[,axis=value...]
//
// with the axes and values of the policy layer:
//
//	sphere=full | sphere=k<N>       enrollment fan-out (e.g. sphere=k6)
//	accept=edf  | accept=laxity<T>  local guarantee test (e.g. accept=laxity0.25)
//	dispatch=uniform | dispatch=weighted
//
// The empty string yields the zero Set (paper defaults). Unknown axes or
// malformed values are errors: a deployment flag that silently falls back
// to defaults hides misconfiguration.
func ParsePolicies(spec string) (policy.Set, error) {
	var set policy.Set
	if strings.TrimSpace(spec) == "" {
		return set, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		axis, value, found := strings.Cut(strings.TrimSpace(tok), "=")
		if !found {
			return set, fmt.Errorf("scheme: policy token %q is not axis=value", tok)
		}
		switch axis {
		case "sphere":
			switch {
			case value == "full":
				set.Sphere = policy.FullSphere{}
			case strings.HasPrefix(value, "k"):
				k, err := strconv.Atoi(value[1:])
				if err != nil || k <= 0 {
					return set, fmt.Errorf("scheme: sphere=k<N> needs a positive N, got %q", value)
				}
				set.Sphere = policy.KRedundant{K: k}
			default:
				return set, fmt.Errorf("scheme: unknown sphere policy %q (full, k<N>)", value)
			}
		case "accept":
			switch {
			case value == "edf":
				set.Acceptance = policy.EDF{}
			case strings.HasPrefix(value, "laxity"):
				theta, err := strconv.ParseFloat(value[len("laxity"):], 64)
				if err != nil || theta < 0 || theta >= 1 {
					return set, fmt.Errorf("scheme: accept=laxity<T> needs T in [0,1), got %q", value)
				}
				set.Acceptance = policy.LaxityThreshold{Theta: theta}
			default:
				return set, fmt.Errorf("scheme: unknown acceptance policy %q (edf, laxity<T>)", value)
			}
		case "dispatch":
			switch value {
			case "uniform":
				set.Dispatch = mapper.LaxityUniform
			case "weighted":
				set.Dispatch = mapper.LaxityBusynessWeighted
			default:
				return set, fmt.Errorf("scheme: unknown dispatch policy %q (uniform, weighted)", value)
			}
		default:
			return set, fmt.Errorf("scheme: unknown policy axis %q (sphere, accept, dispatch)", axis)
		}
	}
	return set, nil
}
