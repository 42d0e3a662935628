package par

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// firedKey is the ordering key of one fired event, as the test derives it
// from its own Schedule/Deliver calls: (at, birth, origin, seq).
type firedKey struct {
	at, birth   float64
	origin, seq int
}

func (a firedKey) less(b firedKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.birth != b.birth {
		return a.birth < b.birth
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

// runKeyed drives a random self-sustaining workload over n origins — closure
// events, delivery events and cancellable timers, some cancelled while
// interior to the heap — and returns, per origin, the keys of the events
// that fired there, in firing order. All randomness is per origin, so the
// workload is a pure function of the per-origin execution order.
func runKeyed(t *testing.T, n, nparts int, seed int64) [][]firedKey {
	t.Helper()
	const delay = 0.25
	eng, err := New(blockParts(n, nparts), delay)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	logs := make([][]firedKey, n)
	rngs := make([]*rand.Rand, n)
	seqs := make([]int, n)
	timers := make([][]func() bool, n)
	budget := make([]int, n)
	for o := range rngs {
		rngs[o] = rand.New(rand.NewSource(seed*100 + int64(o)))
		budget[o] = 150
	}
	var fire func(at int, k firedKey)
	var deliver sim.Delivery
	// spawn schedules one random event from origin o's context.
	spawn := func(o int) {
		rng := rngs[o]
		to := (o + 1 + rng.Intn(n-1)) % n
		now := eng.NowOf(o)
		at := now + delay*float64(1+rng.Intn(3))
		seqs[o]++
		k := firedKey{at: at, birth: now, origin: o, seq: seqs[o]}
		switch rng.Intn(3) {
		case 0:
			eng.Schedule(o, to, at, func() { fire(to, k) })
		case 1:
			eng.Deliver(o, to, at, deliver, k)
		default: // a timer on o itself
			timers[o] = append(timers[o], eng.ScheduleCancellable(o, at, func() { fire(o, k) }))
		}
	}
	fire = func(at int, k firedKey) {
		logs[at] = append(logs[at], k)
		rng := rngs[at]
		if len(timers[at]) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(timers[at]))
			timers[at][i]() // pending or not: both are legal
			timers[at] = append(timers[at][:i], timers[at][i+1:]...)
		}
		for c := 1 + rng.Intn(2); c > 0 && budget[at] > 0; c-- {
			budget[at]--
			spawn(at)
		}
	}
	deliver = func(from, to int32, p any) {
		k := p.(firedKey)
		if int(from) != k.origin {
			t.Errorf("delivery from %d carries origin %d", from, k.origin)
		}
		fire(int(to), k)
	}
	for o := 0; o < n; o++ {
		for c := 0; c < 4; c++ {
			spawn(o)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return logs
}

// TestHeapPropertyAcrossPartitions: through the parallel kernel, every
// origin sees its events in exactly sorted (at, birth, origin, seq) order,
// and the same sequence at 1, 2 and 4 partitions.
func TestHeapPropertyAcrossPartitions(t *testing.T) {
	const n = 8
	for seed := int64(1); seed <= 5; seed++ {
		var ref [][]firedKey
		for _, nparts := range []int{1, 2, 4} {
			logs := runKeyed(t, n, nparts, seed)
			total := 0
			for o, log := range logs {
				total += len(log)
				for i := 1; i < len(log); i++ {
					if !log[i-1].less(log[i]) {
						t.Fatalf("seed %d, %d partitions, origin %d: %+v fired before %+v",
							seed, nparts, o, log[i-1], log[i])
					}
				}
			}
			if total < 200 {
				t.Fatalf("seed %d: degenerate workload, %d events", seed, total)
			}
			if ref == nil {
				ref = logs
			} else if !reflect.DeepEqual(ref, logs) {
				t.Fatalf("seed %d: firing order at %d partitions differs from 1 partition", seed, nparts)
			}
		}
	}
}
