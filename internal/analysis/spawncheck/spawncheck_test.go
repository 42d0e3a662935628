package spawncheck

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestSpawncheck(t *testing.T) {
	analysistest.Run(t, Analyzer, analysistest.Dir("spawn"))
}

func TestAllowSilences(t *testing.T) {
	analysistest.Run(t, Analyzer, analysistest.Dir("allowspawn"))
}
