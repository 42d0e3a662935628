package rtdslint

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestAppliesToScoping(t *testing.T) {
	var names []string
	for _, a := range Suite() {
		names = append(names, a.Name)
	}
	want := []string{"detclock", "mapiter", "exhaustive", "lockorder", "hotalloc", "spawncheck"}
	if !slices.Equal(names, want) {
		t.Fatalf("Suite() = %v, want %v", names, want)
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
		{"hotalloc", "repro/internal/core", true},
		{"hotalloc", "repro/internal/baseline", false},
		{"mapiter", "repro/internal/wire", true},
		{"mapiter", "repro/internal/baseline", true},
		{"mapiter", "repro/cmd/rtds-sim", false},
		{"lockorder", "repro/internal/simnet", true},
		{"lockorder", "repro/internal/gateway", true},
		{"lockorder", "repro/cmd/rtds-node", false},
		{"exhaustive", "repro/cmd/rtds-sim", true},
		{"exhaustive", "repro/internal/wire", true},
		// The linter's own packages are exempt from everything.
		{"mapiter", "repro/internal/analysis/mapiter", false},
		{"lockorder", "repro/internal/analysis/lockorder", false},
		{"detclock", "repro/internal/determinism", false},
	}
	for _, c := range cases {
		a := Suite()[slices.Index(names, c.analyzer)]
		if got := AppliesTo(a, c.pkg); got != c.want {
			t.Errorf("AppliesTo(%s, %s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}

// TestBinaryOutputForCI builds the rtds-lint binary and pins what CI relies
// on: a finding exits 2 and prints one line the problem matcher parses, and
// a clean package exits 0.
func TestBinaryOutputForCI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and lints a throwaway module: skipped in -short")
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

	raw, err := os.ReadFile(filepath.Join(moduleRoot, ".github", "rtds-lint-problem-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Pattern []struct{ Regexp string }
		}
	}
	if err := json.Unmarshal(raw, &matcher); err != nil {
		t.Fatal(err)
	}
	lineRe := regexp.MustCompile(matcher.ProblemMatcher[0].Pattern[0].Regexp)

	// A throwaway module named like this one, so the deterministic-package
	// scope applies, with one wall-clock read in the simulator.
	mod := t.TempDir()
	files := map[string]string{
		"go.mod":                "module repro\n\ngo 1.22\n",
		"internal/sim/clock.go": "package sim\n\nimport \"time\"\n\nfunc Stamp() time.Time { return time.Now() }\n",
	}
	for name, src := range files {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirty := exec.Command(bin, "./...")
	dirty.Dir = mod
	dirty.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	out, err := dirty.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("rtds-lint over a seeded wall-clock read: %v, want exit status 2\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d output lines, want 1:\n%s", len(lines), out)
	}
	m := lineRe.FindStringSubmatch(lines[0])
	if m == nil {
		t.Fatalf("output %q does not match the problem matcher %q", lines[0], lineRe)
	}
	if filepath.Base(m[1]) != "clock.go" || m[2] != "5" || m[5] != "detclock" {
		t.Errorf("matcher groups file=%q line=%q analyzer=%q, want clock.go, 5, detclock", m[1], m[2], m[5])
	}

	clean := exec.Command(bin, "./internal/determinism/...")
	clean.Dir = moduleRoot
	if out, err := clean.CombinedOutput(); err != nil {
		t.Fatalf("rtds-lint over a clean package: %v\n%s", err, out)
	}
}
