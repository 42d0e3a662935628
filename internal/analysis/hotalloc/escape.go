package hotalloc

// The compiler half of the cross-check: run `go build -gcflags=-m` over
// the scoped packages and index its escape-analysis messages by file and
// line. The go command replays cached compiler diagnostics, so repeated
// lint runs don't pay for recompilation.

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// lineKey addresses one source line by absolute path.
type lineKey struct {
	file string
	line int
}

// escapeMark aggregates the compiler's verdicts for one line.
type escapeMark struct {
	// heap: at least one operand on the line escapes to (or is moved to)
	// the heap.
	heap bool
	// msg is the first heap message, for diagnostics.
	msg string
}

// escapeRe matches one compiler diagnostic line: file:line:col: message.
var escapeRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*)$`)

// escapeFacts builds the per-line escape index for the pass's packages.
func escapeFacts(pass *analysis.Pass) (map[lineKey]escapeMark, error) {
	args := []string{"build", "-gcflags=-m"}
	var pats []string
	for _, pkg := range pass.Packages {
		if pkg.Dir == "" {
			// A standalone fixture package (analysistest): the pass
			// directory is the package directory.
			pats = []string{"."}
			break
		}
		pats = append(pats, pkg.Dir)
	}
	cmd := exec.Command("go", append(args, pats...)...)
	cmd.Dir = pass.Dir
	// The compiler prints -m diagnostics on stderr, mixed with package
	// headers ("# repro/internal/wire") and inlining notes.
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	facts := make(map[lineKey]escapeMark)
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[3]
		if !strings.Contains(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		if strings.Contains(msg, "does not escape") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(pass.Dir, file)
		}
		if abs, absErr := filepath.Abs(file); absErr == nil {
			file = abs
		}
		n, _ := strconv.Atoi(m[2])
		key := lineKey{file: filepath.Clean(file), line: n}
		mark := facts[key]
		if !mark.heap {
			mark.heap = true
			mark.msg = msg
		}
		facts[key] = mark
	}
	return facts, nil
}
