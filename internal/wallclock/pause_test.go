package wallclock

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// A short pause lasts at least what was asked and, on Linux, returns well
// inside the millisecond a Go timer would round it up to.
func TestPauseShortWait(t *testing.T) {
	const d = 200 * time.Microsecond
	took := make([]time.Duration, 31)
	for i := range took {
		start := time.Now()
		Pause(d)
		took[i] = time.Since(start)
		if took[i] < d {
			t.Fatalf("Pause(%v) returned after %v", d, took[i])
		}
	}
	slices.Sort(took)
	if med := took[len(took)/2]; runtime.GOOS == "linux" && med >= 600*time.Microsecond {
		t.Errorf("Pause(%v): median %v, want < 600µs", d, med)
	}
}

func TestPauseNonPositiveReturnsAtOnce(t *testing.T) {
	start := time.Now()
	Pause(0)
	Pause(-time.Second)
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Errorf("Pause(0) and Pause(-1s) took %v", took)
	}
}
