package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/eventsim"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// layerUnits lists every per-layer metric a traced run reports, in
// print order, with its unit.
var layerUnits = []struct{ name, unit string }{
	{"sweep.expand_us_per_point", "us"},
	{"sweep.write_row_us", "us"},
	{"sweep.row_bytes", "B"},
	{"sweep.cache_get_us", "us"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"sweep.cache_put_us", "us"},
	{"sweep.cache_entry_bytes", "B"},
	{"scenario.build_topology_us", "us"},
	{"scenario.overhead_us_per_point", "us"},
	{"scheme.build_us", "us"},
	{"eventsim.reset_us", "us"},
	{"eventsim.run_ms_per_point", "ms"},
	{"eventsim.ns_per_event", "ns"},
	{"eventsim.events_per_point", "count"},
	{"eventsim.allocs_per_run", "count"},
	{"eventsim.alloc_bytes_per_run", "B"},
	{"eventsim.cpu_share.sim", "ratio"},
	{"eventsim.cpu_share.eventsim", "ratio"},
	{"eventsim.cpu_share.policy", "ratio"},
	{"eventsim.cpu_share.runtime_alloc", "ratio"},
	{"eventsim.cpu_share.other", "ratio"},
	{"svc.lease_rtt_us_p50", "us"},
	{"svc.lease_rtt_us_p90", "us"},
	{"svc.lease_rtt_samples", "count"},
	{"svc.complete_rtt_us_p50", "us"},
	{"svc.complete_rtt_us_p90", "us"},
	{"svc.complete_rtt_samples", "count"},
	{"svc.handler_us_p50", "us"},
	{"svc.handler_samples", "count"},
	{"svc.empty_lease_ratio", "ratio"},
	{"svc.tail_idle_ms", "ms"},
	{"svc.simulate_share", "ratio"},
	{"svc.retries", "count"},
	{"svc.duplicates", "count"},
	{"ledger.coverage", "ratio"},
	{"ledger.trace_overhead", "ratio"},
}

// traced is the per-layer run. On the sweep workloads it times the
// benchmark's copy of the runner loop (copyGrid) on the workload's path,
// untraced and traced in turn, with a span around every public call
// (coverage, trace overhead, the cache hit ratio and the layers the
// path exercises come from that), and runs one traced svc campaign on
// the grid. On svc-loopback it traces a campaign of the workload
// itself. Then it probes the rest of the layers on the grid (see
// probeLayers). untraced is the median wall time of the workload's
// untraced passes in the same process.
func traced(ctx context.Context, o options, b bench, ref []byte, work string, untraced time.Duration, res *passResult) (map[string]float64, error) {
	tr := newTracer()
	m := map[string]float64{}
	var (
		g        *sweep.Grid
		sl       svcLedger
		tWall    time.Duration
		tCover   float64
		overhead float64
		known    copyPass
	)
	switch b := b.(type) {
	case *sweepBench:
		g = b.grid
		var plain time.Duration
		for range 2 {
			quiesce()
			p, err := b.copyPass(ctx, nil, res)
			if err != nil {
				return nil, err
			}
			plain += p.wall
			quiesce()
			c, err := b.copyPass(ctx, tr, res)
			if err != nil {
				return nil, err
			}
			known.wall += c.wall
			known.hits += c.hits
			known.lookups += c.lookups
			known.entryBytes = c.entryBytes
		}
		ls := layers(filterRun(tr.snapshot(), "traced"))
		root := ls["pass"]
		tWall = known.wall / 2
		tCover = 1 - float64(root.SelfNS)/float64(root.Total)
		overhead = float64(known.wall) / float64(plain)
		m["sweep.cache_hit_ratio"] = float64(known.hits) / float64(max(known.lookups, 1))
		known.rowBytes = float64(len(ref)) / float64(b.n)
		sb, err := startSvc(g, ref, filepath.Join(work, "svc-probe"))
		if err != nil {
			return nil, err
		}
		quiesce()
		sl, err = sb.tracedCampaign(ctx, tr, res)
		sb.close()
		if err != nil {
			return nil, err
		}
	case *svcBench:
		g = b.grid
		var err error
		quiesce()
		if sl, err = b.tracedCampaign(ctx, tr, res); err != nil {
			return nil, err
		}
		tWall, tCover = sl.wall, sl.coverage
		overhead = float64(sl.wall) / float64(untraced)
		m["sweep.cache_hit_ratio"] = float64(sl.stats.Cached) / float64(max(sl.stats.Total, 1))
	}
	for k, v := range sl.metrics {
		m[k] = v
	}
	m["ledger.coverage"] = tCover
	m["ledger.trace_overhead"] = overhead

	quiesce()
	cpu, err := probeLayers(ctx, tr, g, ref, filepath.Join(work, "probe"), res, m, &known)
	if err != nil {
		return nil, err
	}
	for k, v := range cpu {
		m["eventsim.cpu_share."+k] = v
	}

	// Self times per span group: the workload's traced pass, the svc
	// workers' timelines and the layer probe.
	spans := tr.snapshot()
	self := map[string]map[string]layerStat{}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced pass: %.3fs (untraced %.3fs), coverage %.4f, overhead %.4f\n",
		o.workload, tWall.Seconds(), untraced.Seconds(), tCover, overhead)
	for _, run := range []string{"traced", "worker-", "probe"} {
		self[run] = layers(filterRun(spans, run))
		names := make([]string, 0, len(self[run]))
		for name := range self[run] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			l := self[run][name]
			fmt.Fprintf(os.Stderr, "perfbench:   %-8s %-24s calls %7d  total %10.3f ms  self %10.3f ms\n",
				run, name, l.Calls, float64(l.Total)/1e6, float64(l.SelfNS)/1e6)
		}
	}
	tdir := filepath.Join(o.dir, "trace")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := writeTrace(path, &traceFile{Workload: o.workload, Seed: o.seed, Layers: self, CPUBuckets: cpu, Spans: spans}); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return m, nil
}

// probeLayers times, on the grid's points, what the workload's traced
// pass (known, empty on svc-loopback) did not. For each point it runs
// scenario.Runner.Run and then replays the point's replications one
// public call at a time (see replayer), so that the runner's overhead
// (validation, summarising, pool dispatch) is the difference of two
// adjacent measurements: taken from the traced pass instead, minutes
// apart, the difference reads negative on a host whose speed drifts.
// It calls Cache.Put, Cache.Get and WriteRow only if the traced pass
// made no such call, and the sweep layers' metrics come from the
// traced pass and the probe together, so each is timed once. Every
// replay's event count is checked against Summary.Events and every
// probed row against ref. A second, untraced replay of the grid runs
// under the CPU profiler.
func probeLayers(ctx context.Context, tr *tracer, g *sweep.Grid, ref []byte, dir string, res *passResult, m map[string]float64, known *copyPass) (map[string]float64, error) {
	have := layers(filterRun(tr.snapshot(), "traced"))
	timed := func(name string) bool { return have[name].Calls > 0 }
	root := tr.begin("probe", "probe", 0)
	id := tr.begin("sweep.expand", "probe", root)
	pts, err := sweep.Expand(g)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	n := float64(len(pts))
	var cache *sweep.Cache
	if !timed("sweep.cache_put") {
		if cache, err = sweep.OpenCache(dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	refRows := bytes.SplitAfter(ref, []byte("\n"))
	sc := &scenario.Runner{Parallelism: 1}
	defer sc.Close()
	rp := &replayer{tr: tr, parent: root}
	var row bytes.Buffer
	rowBytes := 0
	for i, pt := range pts {
		id := tr.begin("scenario.run", "probe", root)
		sum, err := sc.Run(ctx, &pt.Spec)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		events, err := rp.point(pt)
		if err != nil {
			return nil, err
		}
		res.points++
		bad := events != sum.Events
		got := sum
		if cache != nil {
			id = tr.begin("sweep.cache_put", "probe", root)
			err = cache.Put(pt.Key, &pt.Spec, sum)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			if !timed("sweep.cache_get") {
				id = tr.begin("sweep.cache_get", "probe", root)
				s, ok := cache.Get(pt.Key)
				tr.end(id)
				if ok {
					s.Name = pt.Name
					got = s
				} else {
					bad = true
				}
			}
		}
		if !timed("sweep.write_row") {
			row.Reset()
			id = tr.begin("sweep.write_row", "probe", root)
			err = sweep.WriteRow(&row, &sweep.PointResult{Point: pt, Summary: got})
			tr.end(id)
			if err != nil {
				return nil, err
			}
			rowBytes += row.Len()
			bad = bad || i >= len(refRows) || !bytes.Equal(row.Bytes(), refRows[i])
		}
		if bad {
			res.failed++
		}
	}
	tr.end(root)
	if cache != nil {
		if known.entryBytes, err = dirBytes(dir); err != nil {
			return nil, err
		}
	}
	if !timed("sweep.write_row") {
		known.rowBytes = float64(rowBytes) / n
	}

	// Sample at 500 Hz rather than the default 100 Hz so that a replay
	// of about a second still yields hundreds of samples. Setting the
	// rate first makes StartCPUProfile keep it (and print a warning).
	runtime.SetCPUProfileRate(500)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	quiet := &replayer{}
	for _, pt := range pts {
		if _, err := quiet.point(pt); err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
	}
	pprof.StopCPUProfile()
	cpu, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}

	spans := tr.snapshot()
	l := layers(append(filterRun(spans, "traced"), filterRun(spans, "probe")...))
	l["scenario.run"] = layers(filterRun(spans, "probe"))["scenario.run"]
	replayNS := l["scenario.build_topology"].Total + l["scheme.build"].Total +
		l["eventsim.reset"].Total + l["eventsim.run"].Total
	run := l["eventsim.run"]
	runs := float64(max(run.Calls, 1))
	m["sweep.expand_us_per_point"] = l["sweep.expand"].meanUS() / n
	m["sweep.write_row_us"] = l["sweep.write_row"].meanUS()
	m["sweep.row_bytes"] = known.rowBytes
	m["sweep.cache_get_us"] = l["sweep.cache_get"].meanUS()
	m["sweep.cache_put_us"] = l["sweep.cache_put"].meanUS()
	m["sweep.cache_entry_bytes"] = float64(known.entryBytes) / n
	m["scenario.build_topology_us"] = l["scenario.build_topology"].meanUS()
	m["scenario.overhead_us_per_point"] = l["scenario.run"].meanUS() - float64(replayNS)/1e3/n
	m["scheme.build_us"] = l["scheme.build"].meanUS()
	m["eventsim.reset_us"] = l["eventsim.reset"].meanUS()
	m["eventsim.run_ms_per_point"] = float64(run.Total) / 1e6 / n
	m["eventsim.ns_per_event"] = float64(run.Total) / float64(max(rp.events, 1))
	m["eventsim.events_per_point"] = float64(rp.events) / n
	m["eventsim.allocs_per_run"] = float64(rp.mallocs) / runs
	m["eventsim.alloc_bytes_per_run"] = float64(rp.bytes) / runs
	return cpu, nil
}

// replayer re-runs a point's replications the way the scenario runner
// does — BuildTopology, scheme.Build, eventsim.New or Reset, Run — one
// public call at a time, reusing one simulator like a pool worker's
// arena. The grids use saturated traffic and no churn or capture, so
// the configuration below is the runner's whole one. With a tracer, it
// records a span per call and the heap allocations of each Run.
type replayer struct {
	tr     *tracer
	parent int
	sim    *eventsim.Simulator

	events, mallocs, bytes uint64
}

func (rp *replayer) span(name string) int {
	if rp.tr == nil {
		return 0
	}
	return rp.tr.begin(name, "probe", rp.parent)
}

func (rp *replayer) end(id int) {
	if rp.tr != nil {
		rp.tr.end(id)
	}
}

// point replays every replication of pt and returns their events.
func (rp *replayer) point(pt *sweep.Point) (uint64, error) {
	sp := &pt.Spec
	var events uint64
	for rep := 0; rep < sp.Seeds; rep++ {
		seed := sp.Seed + int64(rep)
		id := rp.span("scenario.build_topology")
		tp, err := scenario.BuildTopology(&sp.Topology, seed)
		rp.end(id)
		if err != nil {
			return 0, err
		}
		id = rp.span("scheme.build")
		policies, controller, err := scheme.Build(sp.Scheme, sp.Weights, tp.N())
		rp.end(id)
		if err != nil {
			return 0, err
		}
		cfg := eventsim.Config{
			PHY:            model.PaperPHY(),
			Topology:       tp,
			Policies:       policies,
			Controller:     controller,
			UpdatePeriod:   sim.Duration(sp.UpdatePeriod),
			Seed:           seed,
			RTSCTS:         sp.RTSCTS,
			FrameErrorRate: sp.FrameErrorRate,
		}
		id = rp.span("eventsim.reset")
		if rp.sim == nil {
			rp.sim, err = eventsim.New(cfg)
		} else {
			err = rp.sim.Reset(cfg)
		}
		rp.end(id)
		if err != nil {
			return 0, err
		}
		var m0 memSnap
		if rp.tr != nil {
			m0 = readMem()
		}
		id = rp.span("eventsim.run")
		r := rp.sim.Run(sim.Duration(sp.Duration))
		rp.end(id)
		if rp.tr != nil {
			m1 := readMem()
			rp.mallocs += m1.mallocs - m0.mallocs
			rp.bytes += m1.bytes - m0.bytes
		}
		events += r.EventsFired
	}
	rp.events += events
	return events, nil
}

// dirBytes is the size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
