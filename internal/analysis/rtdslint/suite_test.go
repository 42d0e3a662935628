package rtdslint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestAppliesToScoping(t *testing.T) {
	byName := map[string]string{}
	for _, a := range Suite() {
		byName[a.Name] = a.Name
	}
	for _, name := range []string{"detclock", "mapiter", "exhaustive", "sendunderlock"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("suite is missing analyzer %q", name)
		}
	}

	cases := []struct {
		analyzer string
		pkg      string
		want     bool
	}{
		{"detclock", "repro/internal/sim", true},
		// The parallel kernel is simulation state of the strictest kind —
		// its event order must be a pure function of the seed — so it must
		// inherit the full deterministic-package policing.
		{"detclock", "repro/internal/sim/par", true},
		{"detclock", "repro/internal/core/txn", true},
		{"detclock", "repro/internal/simnet", true},
		{"detclock", "repro/internal/wire", false}, // live TCP layer
		{"detclock", "repro/internal/baseline", false},
		{"mapiter", "repro/internal/sim/par", true},
		{"hotalloc", "repro/internal/sim/par", true},
		{"hotalloc", "repro/internal/routing/hier", true},
		{"mapiter", "repro/internal/wire", true},
		{"mapiter", "repro/internal/baseline", true},
		{"mapiter", "repro/cmd/rtds-sim", false},
		{"sendunderlock", "repro/internal/simnet", true},
		{"exhaustive", "repro/cmd/rtds-sim", true},
		{"exhaustive", "repro/internal/wire", true},
		// The linter's own packages are exempt from everything.
		{"mapiter", "repro/internal/analysis/mapiter", false},
		{"detclock", "repro/internal/determinism", false},
	}
	suite := map[string]int{}
	for i, a := range Suite() {
		suite[a.Name] = i
	}
	for _, c := range cases {
		a := Suite()[suite[c.analyzer]]
		if got := AppliesTo(a, c.pkg); got != c.want {
			t.Errorf("AppliesTo(%s, %s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}

// TestVettoolIntegration builds the rtds-lint binary and drives it both
// standalone and through `go vet -vettool` over a package that must be
// clean, proving the unitchecker protocol end to end.
func TestVettoolIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs go vet: skipped in -short")
	}
	moduleRoot, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "rtds-lint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/rtds-lint")
	build.Dir = moduleRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rtds-lint: %v\n%s", err, out)
	}

	// Standalone over a known-clean package.
	standalone := exec.Command(bin, "./internal/determinism/...")
	standalone.Dir = moduleRoot
	if out, err := standalone.CombinedOutput(); err != nil {
		t.Fatalf("standalone rtds-lint reported problems: %v\n%s", err, out)
	}

	// The -V=full probe must print a stable version line (the go command
	// uses it as a cache key).
	probe := exec.Command(bin, "-V=full")
	out, err := probe.Output()
	if err != nil || !strings.HasPrefix(string(out), "rtds-lint version") {
		t.Fatalf("-V=full probe: %v, output %q", err, out)
	}

	// Full protocol: go vet -vettool over the same package.
	vet := exec.Command("go", "vet", "-vettool="+bin, "./internal/determinism/...")
	vet.Dir = moduleRoot
	vet.Env = append(os.Environ(), "GOFLAGS=")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool: %v\n%s", err, out)
	}
}
