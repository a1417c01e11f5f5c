package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// sweepBench runs a grid through sweep.Runner at Parallelism 1, the way
// the sweep CLI does: hidden-rtscts without a cache, sweep-cold into a
// fresh cache per pass, sweep-warm against a cache filled at set-up.
type sweepBench struct {
	workload string
	grid     *sweep.Grid
	n        int // points per grid
	reps     int // grid runs per pass
	dir      string
	cache    *sweep.Cache // sweep-warm's filled cache
	fresh    bool         // sweep-cold: a new cache per grid run
	ref      []byte       // the reference rows every run must reproduce
	buf      bytes.Buffer
	runs     int
	// unit is how many consecutive points of a grid run make one timed
	// unit of the pass (see calib.go).
	unit int
	// emitDelay, when non-nil, runs in the emit callback of every
	// point: the benchmark's own tests use it to slow the per-point path
	// from the benchmark's side.
	emitDelay func()
}

// newSweepBench decodes and expands the grid, fills sweep-warm's cache
// (whose rows are the sweep-cold rows sweep-warm must reproduce), and
// runs and discards one warm-up pass, timing it all in units of setup.
func newSweepBench(ctx context.Context, workload string, data []byte, dir string, setup *passResult) (*sweepBench, []byte, error) {
	g, err := sweep.Decode(data)
	if err != nil {
		return nil, nil, err
	}
	pts, err := sweep.Expand(g)
	if err != nil {
		return nil, nil, err
	}
	b := &sweepBench{workload: workload, grid: g, n: len(pts), reps: 1, dir: dir, unit: 1}
	switch workload {
	case sweepCold:
		b.fresh = true
		b.unit = coldUnit
	case sweepWarm:
		b.reps = warmReps
		b.unit = b.n
		if b.cache, err = sweep.OpenCache(filepath.Join(dir, "warm-cache")); err != nil {
			return nil, nil, err
		}
		if _, err := b.runGrid(ctx, b.cache, setup); err != nil {
			return nil, nil, fmt.Errorf("fill cache: %w", err)
		}
		b.ref = bytes.Clone(b.buf.Bytes())
	}
	if err := b.pass(ctx, setup); err != nil {
		return nil, nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if b.ref == nil {
		b.ref = bytes.Clone(b.buf.Bytes())
	}
	return b, b.ref, nil
}

// runGrid runs the grid once, leaving its rows in b.buf, and adds the
// run to res as units of b.unit points, the last ending with the run.
func (b *sweepBench) runGrid(ctx context.Context, cache *sweep.Cache, res *passResult) (sweep.Stats, error) {
	b.buf.Reset()
	r := &sweep.Runner{Parallelism: 1, Cache: cache}
	emitted := 0
	res.open()
	st, err := r.Each(ctx, b.grid, func(pr *sweep.PointResult) error {
		if b.emitDelay != nil {
			b.emitDelay()
		}
		if err := sweep.WriteRow(&b.buf, pr); err != nil {
			return err
		}
		if emitted++; emitted%b.unit == 0 && emitted < b.n {
			res.open()
		}
		return nil
	})
	res.close()
	return st, err
}

// freshCache opens an empty cache directory for one grid run.
func (b *sweepBench) freshCache() (*sweep.Cache, error) {
	b.runs++
	return sweep.OpenCache(filepath.Join(b.dir, fmt.Sprintf("cache-%d", b.runs)))
}

func (b *sweepBench) pass(ctx context.Context, res *passResult) error {
	for rep := 0; rep < b.reps; rep++ {
		cache := b.cache
		if b.fresh {
			var err error
			if cache, err = b.freshCache(); err != nil {
				return err
			}
		}
		m0 := readMem()
		st, err := b.runGrid(ctx, cache, res)
		res.addMem(m0)
		res.points += b.n
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		}
		res.failed += b.check(b.buf.Bytes())
		if b.workload == sweepWarm {
			// The resume path promises zero re-simulation.
			res.failed += st.Simulated
		}
		if b.fresh {
			if err := os.RemoveAll(cache.Dir()); err != nil {
				return err
			}
		}
	}
	return nil
}

// check counts the reference rows that rows does not reproduce byte for
// byte (before a reference exists, nothing can fail).
func (b *sweepBench) check(rows []byte) int {
	if b.ref == nil {
		return 0
	}
	return mismatches(rows, b.ref)
}

// copyPass is one pass of the benchmark's copy of the sweep.Runner loop
// (see copyGrid), traced when tr is non-nil.
type copyPass struct {
	wall          time.Duration // the copy loop's time, without cache set-up and removal
	hits, lookups int
	entryBytes    int64   // size of the cache's files after the last grid run
	rowBytes      float64 // bytes per row
}

// copyPass runs one pass of the workload's path through copyGrid, with
// the same caches as pass.
func (b *sweepBench) copyPass(ctx context.Context, tr *tracer, res *passResult) (copyPass, error) {
	var cp copyPass
	for rep := 0; rep < b.reps; rep++ {
		cache := b.cache
		if b.fresh {
			var err error
			if cache, err = b.freshCache(); err != nil {
				return cp, err
			}
		}
		t0 := time.Now()
		err := b.copyGrid(ctx, tr, cache, &cp)
		cp.wall += time.Since(t0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced pass: %v\n", b.workload, err)
		}
		res.points += b.n
		res.failed += b.check(b.buf.Bytes())
		if cache != nil && rep == b.reps-1 {
			if cp.entryBytes, err = dirBytes(cache.Dir()); err != nil {
				return cp, err
			}
		}
		if b.fresh {
			if err := os.RemoveAll(cache.Dir()); err != nil {
				return cp, err
			}
		}
	}
	return cp, nil
}

// copyGrid is the benchmark's copy of sweep.Runner's loop at
// Parallelism 1: Expand, then per point Cache.Get, scenario.Runner.Run
// on a miss, Cache.Put and WriteRow — the public calls the runner
// makes — with a span around each (when tr is non-nil) under one
// "pass" span. The traced run times this copy, not the runner itself,
// whose internals (pool dispatch, the emit cursor) have no public hook:
// ledger.coverage says how much of the copy's time its spans cover, and
// ledger.trace_overhead compares it traced and untraced.
func (b *sweepBench) copyGrid(ctx context.Context, tr *tracer, cache *sweep.Cache, cp *copyPass) error {
	b.buf.Reset()
	root := tr.begin("pass", "traced", 0)
	defer tr.end(root)
	id := tr.begin("sweep.expand", "traced", root)
	pts, err := sweep.Expand(b.grid)
	tr.end(id)
	if err != nil {
		return err
	}
	sc := &scenario.Runner{Parallelism: 1}
	defer sc.Close()
	for _, pt := range pts {
		var sum *scenario.Summary
		if cache != nil {
			id := tr.begin("sweep.cache_get", "traced", root)
			s, ok := cache.Get(pt.Key)
			tr.end(id)
			cp.lookups++
			if ok {
				cp.hits++
				s.Name = pt.Name
				sum = s
			}
		}
		if sum == nil {
			id := tr.begin("scenario.run", "traced", root)
			sum, err = sc.Run(ctx, &pt.Spec)
			tr.end(id)
			if err != nil {
				return err
			}
			if cache != nil {
				id := tr.begin("sweep.cache_put", "traced", root)
				err = cache.Put(pt.Key, &pt.Spec, sum)
				tr.end(id)
				if err != nil {
					return err
				}
			}
		}
		id := tr.begin("sweep.write_row", "traced", root)
		err = sweep.WriteRow(&b.buf, &sweep.PointResult{Point: pt, Summary: sum})
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *sweepBench) close() error { return os.RemoveAll(b.dir) }

// mismatches counts the lines of ref that got does not reproduce at the
// same position.
func mismatches(got, ref []byte) int {
	if bytes.Equal(got, ref) {
		return 0
	}
	g := bytes.SplitAfter(got, []byte("\n"))
	bad := 0
	for i, line := range bytes.SplitAfter(ref, []byte("\n")) {
		if len(line) > 0 && (i >= len(g) || !bytes.Equal(g[i], line)) {
			bad++
		}
	}
	return bad
}
