// Package rtdslint assembles the project's analyzers into the suite the
// rtds-lint binary (and CI) runs, and defines which packages each analyzer
// polices. It lives apart from package analysis so the framework does not
// import its own analyzers.
package rtdslint

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detclock"
	"repro/internal/analysis/exhaustive"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/mapiter"
	"repro/internal/analysis/spawncheck"
)

// Suite returns the analyzers in the order they run (and the order their
// names appear in documentation). Each runs once over the packages
// AppliesTo admits.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detclock.Analyzer,
		mapiter.Analyzer,
		exhaustive.Analyzer,
		lockorder.Analyzer,
		hotalloc.Analyzer,
		spawncheck.Analyzer,
	}
}

// deterministicPkgs are the import-path prefixes whose code runs under the
// discrete-event simulation and must never read wall-clock time or the
// global rand source. internal/simnet is included even though its
// process timer queue (clock.go) is wall-clock by nature; that file carries
// //lint:file-allow wallclock with a justification, which keeps the
// boundary explicit in the source instead of implicit in linter
// configuration.
var deterministicPkgs = []string{
	"repro/internal/sim",
	"repro/internal/core",
	"repro/internal/routing",
	"repro/internal/schedule",
	"repro/internal/experiments",
	"repro/internal/simnet",
}

// AppliesTo reports whether an analyzer runs on the package with the given
// import path. Scoping policy:
//
//   - detclock: deterministic packages only (see deterministicPkgs)
//   - mapiter, lockorder: all internal packages except the linter's own
//     implementation (its testdata fixtures intentionally violate the rules)
//   - hotalloc: the declared hot-path packages (wire, sim, core for the
//     record writer and the relay hop, schedule, and routing for the
//     bootstrap's merge and landmark relaxation); the //lint:hotpath roots
//     live there and the call graph stays within them
//   - spawncheck: every package that spawns goroutines, i.e. all module
//     code outside the linter itself
//   - exhaustive: the whole module
func AppliesTo(a *analysis.Analyzer, importPath string) bool {
	if hasPrefix(importPath, "repro/internal/analysis") ||
		hasPrefix(importPath, "repro/internal/determinism") {
		// The framework ranges over types.Info maps (sorted afterwards) and
		// the determinism package *is* the sorted-iteration helper.
		return false
	}
	switch a.Name {
	case "detclock":
		for _, p := range deterministicPkgs {
			if hasPrefix(importPath, p) {
				return true
			}
		}
		return false
	case "mapiter", "lockorder":
		return hasPrefix(importPath, "repro/internal")
	case "hotalloc":
		return hasPrefix(importPath, "repro/internal/wire") ||
			hasPrefix(importPath, "repro/internal/sim") ||
			hasPrefix(importPath, "repro/internal/core") ||
			hasPrefix(importPath, "repro/internal/schedule") ||
			hasPrefix(importPath, "repro/internal/routing")
	default: // exhaustive, spawncheck, future module-wide checks
		return hasPrefix(importPath, "repro")
	}
}

// hasPrefix matches whole import-path elements: "repro/internal/sim" covers
// itself and "repro/internal/sim/...", not "repro/internal/simnet".
func hasPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}
