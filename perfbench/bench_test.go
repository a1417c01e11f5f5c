package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// spinSink keeps the delays' results alive. Only the emitting goroutine
// writes it, and the sweep runner serialises emit calls.
var spinSink uint64

// spin runs n rounds of a xorshift generator. As a delay it slows down
// with the host as the simulation does, unlike a sleep or a wait on the
// clock.
func spin(n int) uint64 {
	x := uint64(88172645463325252)
	for range n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// walkBuf is memWalk's table: 16 MiB, four times the kernel's.
var walkBuf = make([]uint64, 1<<21)

// memWalk makes n random writes over walkBuf: a memory-bound delay,
// which competes with the calibration kernel for the caches.
func memWalk(n int) uint64 {
	x := uint64(88172645463325252)
	for range n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		walkBuf[x&(uint64(len(walkBuf))-1)] += x
	}
	return x
}

// bound returns an end-to-end metric's bound from BENCHMARK.json.
func bound(t *testing.T, name string) float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", name)
	return 0
}

// TestTracedRunOnSmallGrids runs the traced ledger on 24-point grids
// through the sweep and the svc paths: every per-layer metric must be
// measured, every row and replay must match its reference, and the
// sweep pass must be covered by its spans.
func TestTracedRunOnSmallGrids(t *testing.T) {
	ctx := context.Background()
	data, err := json.Marshal(shortGrid("test", 7, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{sweepCold, svcLoopback} {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			o := options{workload: w, seed: 7, dir: dir}
			svcRef, err := svcReference(ctx, data)
			if err != nil {
				t.Fatal(err)
			}
			b, ref, err := newBench(ctx, o, data, svcRef, filepath.Join(dir, "bench"), &passResult{})
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if string(ref) != string(svcRef) {
				t.Fatal("the sweep path's rows differ from the in-process reference")
			}
			var res passResult
			m, err := traced(ctx, o, b, ref, filepath.Join(dir, "work"), time.Second, &res)
			if err != nil {
				t.Fatal(err)
			}
			if res.points == 0 || res.failed != 0 {
				t.Errorf("%d of %d points failed", res.failed, res.points)
			}
			for _, lu := range layerUnits {
				if _, ok := m[lu.name]; !ok {
					t.Errorf("no %s", lu.name)
				}
			}
			if c := m["ledger.coverage"]; c < 0.5 || c > 1 {
				t.Errorf("ledger.coverage = %v", c)
			}
			if m["eventsim.events_per_point"] <= 0 || m["svc.complete_rtt_samples"] <= 0 {
				t.Errorf("empty ledger: %v", m)
			}
			share := 0.0
			for _, name := range cpuBucketNames {
				share += m["eventsim.cpu_share."+name]
			}
			if share < 0.999 || share > 1.001 {
				t.Errorf("CPU shares sum to %v", share)
			}
		})
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 90},
		{ID: 4, Parent: 3, Name: "a", Start: 50, End: 60},
	}
	l := layers(spans)
	want := map[string]layerStat{
		"pass": {Calls: 1, Total: 100, SelfNS: 20},
		"a":    {Calls: 2, Total: 40, SelfNS: 40},
		"b":    {Calls: 1, Total: 50, SelfNS: 40},
	}
	for name, w := range want {
		if l[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, l[name], w)
		}
	}
}

// TestPerPointDelayIsFlagged is the benchmark's sensitivity self-check.
// It slows the per-point path from the benchmark's side, with a busy-wait in
// the emit callback, and measures points_per_s on sweep-cold and
// hidden-rtscts. Slowed and unslowed passes alternate in one process so
// that both see the same host speed, which on a shared host drifts by
// more than the slowdown between runs.
//
// A delay of about 10% of a point's time must show as a throughput
// drop. A delay that lowers throughput by more than the points_per_s
// bound must be flagged by that bound. Whether the 10% delay is flagged
// is logged: points_per_s carries the bound that the host's run-to-run
// spread allows, and that bound is wider than the 9% drop a 10% delay
// causes.
func TestPerPointDelayIsFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads for about a minute")
	}
	limit := bound(t, "points_per_s")
	for _, w := range []string{sweepCold, hiddenRTSCTS} {
		t.Run(w, func(t *testing.T) {
			ctx := context.Background()
			data, err := gridFor(w, defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := newSweepBench(ctx, w, data, t.TempDir(), &passResult{})
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			pass := func(rounds int) passResult {
				b.emitDelay = nil
				if rounds > 0 {
					b.emitDelay = func() { spinSink += spin(rounds) }
				}
				var r passResult
				if err := b.pass(ctx, &r); err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 {
					t.Fatalf("%d of %d points failed", r.failed, r.points)
				}
				return r
			}
			// points_per_s as the benchmark reports it: a pass's points
			// over its units' scaled times.
			rate := func(rounds int) float64 {
				r := pass(rounds)
				return float64(r.points) / r.scaledTime()
			}
			// Size the delays in spin rounds, from the point time and the
			// round time measured back to back.
			r := pass(0)
			perPoint := r.wall.Seconds() / float64(r.points)
			t0 := time.Now()
			spinSink += spin(1 << 24)
			perRound := time.Since(t0).Seconds() / (1 << 24)
			small := int(perPoint / 10 / perRound)
			// The large delay lowers throughput by twice the bound.
			large := int(perPoint * 2 * limit / (1 - 2*limit) / perRound)
			var base, slowSmall, slowLarge []float64
			for range 6 {
				base = append(base, rate(0))
				slowSmall = append(slowSmall, rate(small))
				slowLarge = append(slowLarge, rate(large))
			}
			dropSmall := 1 - median(slowSmall)/median(base)
			dropLarge := 1 - median(slowLarge)/median(base)
			t.Logf("a %.0f us point slowed by ~10%% drops points_per_s by %.3f, by ~%.0f%% drops it by %.3f; bound %.3f",
				perPoint*1e6, dropSmall, 100*float64(large)/float64(small)/10, dropLarge, limit)
			if dropSmall < 0.03 {
				t.Errorf("a 10%% per-point delay lowered points_per_s by only %.3f", dropSmall)
			}
			if dropSmall > limit {
				t.Logf("the bound flags the 10%% delay")
			} else {
				t.Logf("the bound does not flag the 10%% delay")
			}
			if dropLarge <= limit {
				t.Errorf("a delay lowering points_per_s by %.3f is within the bound %.3f", dropLarge, limit)
			}
		})
	}
}

// TestScalingKeepsSlowdowns checks that scaling by the calibration
// kernel (calib.go) does not hide a slowdown of the program: a
// busy-wait and a memory-bound delay in every point of sweep-cold must
// lower the scaled throughput about as much as the unscaled one. Slowed
// and unslowed passes alternate in one process. A kernel that shared
// state with the slowdown (the file system, for a kernel that wrote
// files) would slow down with it and cancel most of it.
func TestScalingKeepsSlowdowns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweep-cold for about half a minute")
	}
	ctx := context.Background()
	data, err := gridFor(sweepCold, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := newSweepBench(ctx, sweepCold, data, t.TempDir(), &passResult{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	delays := []struct {
		name  string
		delay func()
	}{
		{"none", nil},
		{"busy-wait", func() { spinSink += spin(200_000) }},
		{"memory walk", func() { spinSink += memWalk(20_000) }},
	}
	raw := make([][]float64, len(delays))
	scaledRate := make([][]float64, len(delays))
	for range 6 {
		for i, d := range delays {
			b.emitDelay = d.delay
			var r passResult
			if err := b.pass(ctx, &r); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%d of %d points failed", r.failed, r.points)
			}
			raw[i] = append(raw[i], float64(r.points)/r.wall.Seconds())
			scaledRate[i] = append(scaledRate[i], float64(r.points)/r.scaledTime())
		}
	}
	for i, d := range delays[1:] {
		rawDrop := 1 - median(raw[i+1])/median(raw[0])
		scaledDrop := 1 - median(scaledRate[i+1])/median(scaledRate[0])
		t.Logf("%s: unscaled throughput drops by %.3f, scaled by %.3f", d.name, rawDrop, scaledDrop)
		if rawDrop < 0.05 {
			t.Errorf("%s: the delay lowered unscaled throughput by only %.3f", d.name, rawDrop)
		}
		if scaledDrop < 0.6*rawDrop {
			t.Errorf("%s: scaling hides the slowdown: scaled drop %.3f, unscaled %.3f", d.name, scaledDrop, rawDrop)
		}
	}
}
