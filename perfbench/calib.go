package main

import (
	"sync"
	"time"
)

// The reference VM (2 vCPUs of an Intel Xeon host) runs the same code
// up to twice as slow in phases that last from a fraction of a second
// to minutes, and the guest sees none of it: no steal time, no drop in
// its own CPU time. Wall times taken on it mostly say how much of a run
// fell in a slow phase. A short memory-bound kernel slows down with the
// workloads, so the benchmark runs it between timed units and reports
// times scaled to calRef, the kernel's time on an unloaded reference
// host.
//
// The kernel is benchmark code, so a change to the program moves the
// units' times and not the kernel's. The benchmark's tests check that:
// a busy-wait and a memory-bound delay added to each point lower the
// scaled throughput as much as the unscaled one. A kernel that also
// wrote files, like the sweep cache, tracked sweep-cold's file-system
// noise better but hid three quarters of a slower cache write, since
// it shares the file system's journal with the program, so it was not
// kept.

// calIters is the kernel's length.
const calIters = 100_000

// calRef is the kernel's time on an unloaded reference host. Scaled
// times read as that host would show them.
const calRef = 1500 * time.Microsecond

// kernel is one copy of the calibration kernel: random reads and
// writes over buf, 4 MiB, twice a core's L2 cache, so that they go to
// the L3 cache and the memory that the host's other tenants share. How
// much of buf is left in the caches depends on what ran since the
// kernel last ran, so its time is comparable only between runs in the
// same place (after a timed unit, say).
type kernel struct {
	buf  []uint64
	sink uint64
}

// calCPUs is how many kernels calibrate runs at once, one per CPU the
// workload keeps busy; run sets it. svc-loopback's two workers run on
// both CPUs, which the host can slow down differently.
var calCPUs = 1

// kernels holds a kernel per CPU, made on first use. calSpent sums the
// time spent calibrating, so that set-up times can leave it out. Only
// the goroutine that times the workload calibrates.
var (
	kernels  []*kernel
	calSpent time.Duration
)

// calibrate runs calCPUs kernels at once and returns their mean wall
// time.
func calibrate() time.Duration {
	start := time.Now()
	for len(kernels) < calCPUs {
		kernels = append(kernels, &kernel{buf: make([]uint64, 1<<19)})
	}
	var d time.Duration
	if calCPUs == 1 {
		d = kernels[0].run()
	} else {
		ds := make([]time.Duration, calCPUs)
		var wg sync.WaitGroup
		for i, k := range kernels[:calCPUs] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ds[i] = k.run()
			}()
		}
		wg.Wait()
		for _, di := range ds {
			d += di / time.Duration(calCPUs)
		}
	}
	calSpent += time.Since(start)
	return d
}

// run runs the kernel once and returns its wall time.
func (k *kernel) run() time.Duration {
	t0 := time.Now()
	var acc uint64
	x := uint64(88172645463325252)
	for range calIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (uint64(len(k.buf)) - 1)
		acc += k.buf[j]
		k.buf[j] = acc + x
	}
	k.sink += acc
	return time.Since(t0)
}

// scaled returns d as the reference host would show it, given the
// kernel's time cal measured next to it.
func scaled(d, cal time.Duration) float64 {
	return d.Seconds() * calRef.Seconds() / cal.Seconds()
}

// unitTime is one timed unit of a pass and the mean of the kernel times
// measured just before and just after it.
type unitTime struct {
	wall, cal time.Duration
}

// open starts a timed unit. It closes the open unit first if there is
// one, and otherwise calibrates unless the kernel ran for the last
// unit less than a millisecond ago, so that every unit has a kernel run
// on each side.
func (r *passResult) open() {
	switch {
	case !r.from.IsZero():
		r.close()
	case r.calEnd.IsZero() || time.Since(r.calEnd) > time.Millisecond:
		r.lastCal = calibrate()
	}
	r.from = time.Now()
}

// close ends the open unit, if any, and calibrates.
func (r *passResult) close() {
	if !r.from.IsZero() {
		r.closeAs(time.Since(r.from))
	}
}

// closeAs ends the open unit as one that took d (a span measured
// inside it) and calibrates.
func (r *passResult) closeAs(d time.Duration) {
	c := calibrate()
	r.units = append(r.units, unitTime{d, (r.lastCal + c) / 2})
	r.wall += d
	r.lastCal = c
	r.from = time.Time{}
	r.calEnd = time.Now()
}

// scaledTime is the sum of the units' scaled times.
func (r *passResult) scaledTime() float64 {
	t := 0.0
	for _, u := range r.units {
		t += scaled(u.wall, u.cal)
	}
	return t
}
