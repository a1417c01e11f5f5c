package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/sweep"
)

// Workload names, all four gated by BENCHMARK.json.
const (
	hiddenRTSCTS = "hidden-rtscts"
	sweepCold    = "sweep-cold"
	sweepWarm    = "sweep-warm"
	svcLoopback  = "svc-loopback"
)

var workloads = []string{hiddenRTSCTS, sweepCold, sweepWarm, svcLoopback}

// Grid sizes. Each makes one timed pass last one to two seconds on the
// 2-CPU reference host (an Intel Xeon VM), so a 20-second run holds 8
// to 15 passes.
const (
	// hiddenSeeds: 4 schemes × 3 seeds = 12 points of 5 s simulated,
	// ~310k events and ~130 ms of host time each.
	hiddenSeeds = 3
	// shortSeeds: 4 schemes × 3 station counts × 60 seeds = 720 points
	// of 150 ms simulated, ~1.5 ms of host time each.
	shortSeeds = 60
	// coldUnit: a sweep-cold pass is timed in units of this many
	// points, ~45 ms each (see calib.go).
	coldUnit = 30
	// warmReps: a sweep-warm pass replays the cached grid this many
	// times, since one replay of 720 cached points takes only ~40 ms.
	warmReps = 30
	// svcSeeds: 1440 short points shared by the two workers.
	svcSeeds = 120
)

var schemes = []string{scheme.DCF, scheme.IdleSense, scheme.WTOP, scheme.TORA}

// seedAxis derives n distinct replication seeds from the workload seed,
// so the program only ever sees generated grids and a new workload seed
// gives new inputs of the same shape.
func seedAxis(seed int64, n int) []json.RawMessage {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int]bool, n)
	vs := make([]int, 0, n)
	for len(vs) < n {
		v := 1 + rng.Intn(1<<30)
		if !seen[v] {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	return sweep.Ints(vs...)
}

// hiddenGrid is the paper's hidden-node setting: 30 stations in a 16 m
// disc, so many pairs cannot sense each other, with RTS/CTS on. Each
// seed redraws the placement.
func hiddenGrid(seed int64) *sweep.Grid {
	return &sweep.Grid{
		Name: "bench-" + hiddenRTSCTS,
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoDisc, N: 30, Radius: 16},
			Duration: scenario.Duration(5 * time.Second),
			RTSCTS:   true,
		},
		Axes: []sweep.Axis{
			{Field: sweep.FieldScheme, Values: sweep.Strings(schemes...)},
			{Field: sweep.FieldSeed, Values: seedAxis(seed, hiddenSeeds)},
		},
	}
}

// shortGrid is the sweep-service chaos drill's shape (examples/sweeps/
// svc-chaos.json) with many more seeds: short connected-layout points
// whose per-point overhead is a real share of their cost.
func shortGrid(name string, seed int64, seeds int) *sweep.Grid {
	return &sweep.Grid{
		Name: "bench-" + name,
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
			Duration: scenario.Duration(150 * time.Millisecond),
		},
		Axes: []sweep.Axis{
			{Field: sweep.FieldScheme, Values: sweep.Strings(schemes...)},
			{Field: sweep.FieldNodes, Values: sweep.Ints(4, 8, 12)},
			{Field: sweep.FieldSeed, Values: seedAxis(seed, seeds)},
		},
	}
}

// gridFor returns the workload's grid as the file bytes a user would
// hand the sweep tools; set-up decodes them like any grid file.
func gridFor(workload string, seed int64) ([]byte, error) {
	var g *sweep.Grid
	switch workload {
	case hiddenRTSCTS:
		g = hiddenGrid(seed)
	case sweepCold, sweepWarm:
		// One grid for both: sweep-warm replays the cache that this
		// grid's cold run fills.
		g = shortGrid("sweep", seed, shortSeeds)
	case svcLoopback:
		g = shortGrid(svcLoopback, seed, svcSeeds)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	return json.Marshal(g)
}
