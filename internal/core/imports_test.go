package core

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestCoreDoesNotImportKernels keeps the kernel fork from growing back: the
// host programs against simnet.Transport and drives virtual time through
// simnet.Kernel, so no non-test file of this package may import an event
// engine. Which engine runs is decided in one place, simnet.NewKernel, from
// Config.KernelWorkers.
func TestCoreDoesNotImportKernels(t *testing.T) {
	banned := map[string]bool{
		"repro/internal/sim":     true,
		"repro/internal/sim/par": true,
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if banned[path] {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no non-test Go files to check")
	}
}
