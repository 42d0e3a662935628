package hotalloc

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, Analyzer, analysistest.Dir("hot"))
}

func TestAllowSilences(t *testing.T) {
	analysistest.Run(t, Analyzer, analysistest.Dir("allowhot"))
}
