package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on shared virtual machines whose speed drifts
// with what other tenants do. The development host (Intel Xeon, 2
// vCPUs) moved between a fast and a slow state, minutes to hours
// apart, with no steal time to show for it: in the slow state every
// workload ran 2.5 to 2.8 times slower, and by up to 10% from one run
// to the next. Wall time alone cannot tell that drift from a change to
// the program.
//
// So a timed phase is cut into rounds of at least roundLen, and between
// rounds, while every client is idle, the benchmark times a fixed
// reference kernel on every CPU at once. The kernel ran 1.9 to 2.1
// times slower in the slow state, so a round's slowness is the kernel's
// time around it over calRef, its time on the development host in its
// fast state, raised to slowExp = 1.4: the power that maps the kernel's
// slowdown to the workloads' on that host (fitted on all three
// workloads, from 1.40 to 1.44). The timing metrics divide each round's times by its
// slowness, so they read as milliseconds and sentences per second on
// that host in its fast state. The kernel shares no code with the
// program, so a change to the program's own speed shows in full.

const (
	// roundLen is the shortest round of a timed phase.
	roundLen = time.Second
	// calEntries is the kernel's table size, in uint32s: 1 MiB, past
	// the L1 cache and within the 2 MiB L2 of the development host.
	calEntries = 1 << 18
	// calIters is the kernel's length per CPU; calRef is its time on
	// the development host in its fast state.
	calIters = 3 << 19
	calRef   = 10 * time.Millisecond
	// calRepeats is how many times one measure runs the kernel; the
	// measure is their median.
	calRepeats = 3
	slowExp    = 1.4
)

var (
	calTable = func() []uint32 {
		t := make([]uint32, calEntries)
		x := uint32(2463534242)
		for i := range t {
			x = xorshift(x)
			t[i] = x
		}
		return t
	}()
	calSink atomic.Uint32 // keeps the kernel's result live
)

func xorshift(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// calKernel walks the table at pseudo-random places with a
// data-dependent branch: integer work, cache misses and mispredicts,
// as in the constraint VM and the simulator's lane sweeps.
func calKernel(seed uint32) uint32 {
	x, acc := seed|1, uint32(0)
	for i := 0; i < calIters; i++ {
		x = xorshift(x)
		v := calTable[x&(calEntries-1)]
		if v&1 != 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
	}
	return acc
}

// slowness runs the kernel on GOMAXPROCS goroutines at once,
// calRepeats times, and returns the median over the repeats of the
// goroutines' mean time, over calRef, to the power slowExp. The mean, not the slowest
// goroutine: when a neighbour takes one CPU for a moment, the scheduler
// would share the other between it and the program's threads over a
// round, not leave one thread behind as in one short run of the kernel.
func slowness() float64 {
	n := runtime.GOMAXPROCS(0)
	times := make([]float64, calRepeats)
	took := make([]time.Duration, n)
	for r := range times {
		var wg sync.WaitGroup
		for g := range took {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				t0 := time.Now()
				calSink.Add(calKernel(uint32(g + 1)))
				took[g] = time.Since(t0)
			}(g)
		}
		wg.Wait()
		var sum time.Duration
		for _, d := range took {
			sum += d
		}
		times[r] = float64(sum) / float64(n)
	}
	return math.Pow(quantile(times, 0.5)/float64(calRef), slowExp)
}
