// Command rtds-lint machine-checks the repository's determinism and
// protocol invariants with six project-specific analyzers: detclock,
// mapiter, exhaustive, lockorder, hotalloc and spawncheck (see
// internal/analysis/... for what each enforces and why, and
// internal/analysis/rtdslint for which packages each polices).
//
// Usage:
//
//	rtds-lint <packages>   # e.g. rtds-lint ./...
//
// Diagnostics go to stderr, one per line, as
// file:line:col: message [analyzer] — the shape CI's problem matcher
// (.github/rtds-lint-problem-matcher.json) turns into annotations.
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
package main

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/rtdslint"
)

func main() {
	patterns := os.Args[1:]
	isFlag := func(arg string) bool { return strings.HasPrefix(arg, "-") }
	if len(patterns) == 0 || slices.ContainsFunc(patterns, isFlag) {
		fmt.Fprintln(os.Stderr, "usage: rtds-lint <packages>   (e.g. rtds-lint ./...)")
		os.Exit(1)
	}
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtds-lint:", err)
		os.Exit(1)
	}
	diags, fset, err := analysis.RunPackages(rtdslint.Suite(), rtdslint.AppliesTo, ".", pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtds-lint:", err)
		os.Exit(1)
	}
	if len(diags) > 0 {
		analysis.PrintDiagnostics(os.Stderr, fset, diags)
		os.Exit(2)
	}
}
