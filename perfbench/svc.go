package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/svc"
	"repro/internal/sweep"
)

// svcWorkers is the number of in-process workers, one per CPU of the
// 2-CPU reference host; each simulates at Parallelism 1.
const svcWorkers = 2

// svcBench runs campaigns through svc.Coordinator behind one loopback
// HTTP server, with a fresh cache per campaign and the daemon's default
// lease settings (PollInterval 200 ms, MaxBatch 8, LeaseTTL 15 s).
type svcBench struct {
	grid      *sweep.Grid
	n         int
	dir       string
	ref       []byte
	srv       *httptest.Server
	transport *http.Transport
	t0        time.Time
	runs      int

	handler    atomic.Pointer[http.Handler] // the current campaign's mux
	firstLease atomic.Int64                 // ns since t0; 0 = none yet
	trace      atomic.Pointer[svcTrace]     // non-nil during a traced campaign
}

// svcReference returns the rows an in-process sweep.Runner produces for
// the grid: the campaign's merged rows must equal them byte for byte.
func svcReference(ctx context.Context, data []byte) ([]byte, error) {
	g, err := sweep.Decode(data)
	if err != nil {
		return nil, err
	}
	var ref bytes.Buffer
	if _, err := (&sweep.Runner{Parallelism: svcWorkers}).Stream(ctx, g, &ref); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return ref.Bytes(), nil
}

// newSvcBench decodes the grid, starts the loopback listener and runs
// and discards one warm-up campaign, timing it in units of setup.
func newSvcBench(ctx context.Context, data, ref []byte, dir string, setup *passResult) (*svcBench, error) {
	g, err := sweep.Decode(data)
	if err != nil {
		return nil, err
	}
	b, err := startSvc(g, ref, dir)
	if err != nil {
		return nil, err
	}
	if _, err := b.campaign(ctx, nil, setup); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return b, nil
}

// startSvc starts the loopback listener for campaigns over g, whose
// merged rows must equal ref.
func startSvc(g *sweep.Grid, ref []byte, dir string) (*svcBench, error) {
	pts, err := sweep.Expand(g)
	if err != nil {
		return nil, err
	}
	b := &svcBench{grid: g, n: len(pts), dir: dir, ref: ref, t0: time.Now()}
	b.transport = &http.Transport{MaxConnsPerHost: svcWorkers, MaxIdleConnsPerHost: svcWorkers}
	b.srv = httptest.NewServer(http.HandlerFunc(b.serve))
	return b, nil
}

func (b *svcBench) since() int64 { return int64(time.Since(b.t0)) }

// serve stamps the first lease of the campaign and dispatches to the
// current coordinator's handler, timing it when traced.
func (b *svcBench) serve(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/lease" {
		b.firstLease.CompareAndSwap(0, b.since())
	}
	h := *b.handler.Load()
	st := b.trace.Load()
	if st == nil {
		h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.ServeHTTP(w, r)
	st.handler(time.Since(t0))
}

func (b *svcBench) pass(ctx context.Context, res *passResult) error {
	_, err := b.campaign(ctx, nil, res)
	return err
}

// campaign runs one campaign: a fresh cache and coordinator, then
// svcWorkers workers until Coordinator.Done, and adds it to res as one
// unit. The unit runs from the first lease to Done — the moment the
// merged rows are complete — not to the workers' exit, which waits out
// one PollInterval; the kernel runs just before the workers start and
// just after they exit.
func (b *svcBench) campaign(ctx context.Context, st *svcTrace, res *passResult) (*svc.Coordinator, error) {
	b.runs++
	cache, err := sweep.OpenCache(filepath.Join(b.dir, fmt.Sprintf("cache-%d", b.runs)))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cache.Dir())
	coord, err := svc.NewCoordinator(svc.CoordinatorConfig{Grid: b.grid, Cache: cache})
	if err != nil {
		return nil, err
	}
	h := coord.Handler()
	b.handler.Store(&h)
	b.firstLease.Store(0)
	b.trace.Store(st)
	defer b.trace.Store(nil)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	coordDone := make(chan error, 1)
	go func() { coordDone <- coord.Run(runCtx) }()

	var wm *svc.WorkerMetrics
	if st != nil {
		wm = svc.NewWorkerMetrics(metrics.NewRegistry())
	}
	res.open()
	m0 := readMem()
	var wg sync.WaitGroup
	errs := make([]error, svcWorkers)
	for i := range svcWorkers {
		id := fmt.Sprintf("worker-%d", i)
		var rt http.RoundTripper = b.transport
		if st != nil {
			rt = &timedTransport{base: b.transport, worker: id, st: st}
		}
		w, err := svc.NewWorker(svc.WorkerConfig{
			Client:      &svc.Client{BaseURL: b.srv.URL, HTTPClient: &http.Client{Transport: rt}, Metrics: wm},
			ID:          id,
			Parallelism: 1,
		})
		if err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(runCtx)
		}()
	}
	exited := make(chan struct{})
	go func() {
		wg.Wait()
		close(exited)
	}()
	select {
	case <-coord.Done():
	case <-exited:
	case <-ctx.Done():
	}
	end := b.since()
	<-exited
	res.addMem(m0)
	res.closeAs(time.Duration(end - b.firstLease.Load()))
	cancel()
	<-coordDone

	res.points += b.n
	res.failed += mismatches(coord.RowsSnapshot(), b.ref)
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", svcLoopback, err)
		}
	}
	if err := coord.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", svcLoopback, err)
	}
	if st != nil {
		st.start, st.done = b.firstLease.Load(), end
		st.retries = wm.Retries.Value()
	}
	return coord, ctx.Err()
}

func (b *svcBench) close() error {
	b.srv.Close()
	b.transport.CloseIdleConnections()
	return os.RemoveAll(b.dir)
}

// svcLedger is what a traced campaign reports.
type svcLedger struct {
	metrics  map[string]float64
	coverage float64
	wall     time.Duration
	stats    svc.CampaignStats
}

// tracedCampaign runs one campaign with every worker's round trips and
// every handler call timed.
func (b *svcBench) tracedCampaign(ctx context.Context, tr *tracer, res *passResult) (svcLedger, error) {
	st := &svcTrace{b: b}
	var r passResult
	coord, err := b.campaign(ctx, st, &r)
	res.points += r.points
	res.failed += r.failed
	if err != nil {
		return svcLedger{}, err
	}
	cs := coord.Stats()
	m, cov := st.svcLayers(tr, cs)
	return svcLedger{metrics: m, coverage: cov, wall: r.wall, stats: cs}, nil
}

// rtt is one control-plane round trip as a worker saw it.
type rtt struct {
	worker, path string
	start, end   int64 // ns since the bench's t0
	points       int   // lease responses: points granted
	done         bool  // lease responses: campaign over
}

// svcTrace collects a traced campaign's round trips and handler times.
type svcTrace struct {
	b           *svcBench
	mu          sync.Mutex
	rtts        []rtt
	handlerNS   []float64
	start, done int64
	retries     uint64
}

func (st *svcTrace) handler(d time.Duration) {
	st.mu.Lock()
	st.handlerNS = append(st.handlerNS, float64(d))
	st.mu.Unlock()
}

// timedTransport times each control-plane call of one worker and reads
// lease responses to see whether they granted points.
type timedTransport struct {
	base   http.RoundTripper
	worker string
	st     *svcTrace
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := rtt{worker: t.worker, path: req.URL.Path, start: t.st.b.since()}
	resp, err := t.base.RoundTrip(req)
	if err == nil && r.path == "/v1/lease" && resp.StatusCode == http.StatusOK {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr svc.LeaseResponse
		if rerr == nil && json.Unmarshal(body, &lr) == nil {
			r.points, r.done = len(lr.Points), lr.Done
		}
	}
	r.end = t.st.b.since()
	t.st.mu.Lock()
	t.st.rtts = append(t.st.rtts, r)
	t.st.mu.Unlock()
	return resp, err
}

// svcLayers derives the control-plane ledger of a traced campaign. It
// records each worker's timeline as spans — the round trips, plus
// svc.simulate from a lease that granted points to the worker's next
// call, and svc.idle from an empty lease to the next call — and
// returns the per-layer metrics and the share of workers × window
// (first lease to Done) that the spans cover. The idle tail runs from
// the moment the first worker ran out of work (finished its last batch
// before Done) to Done.
func (st *svcTrace) svcLayers(tr *tracer, cs svc.CampaignStats) (map[string]float64, float64) {
	byWorker := map[string][]rtt{}
	var lease, complete []float64
	empty := 0
	for _, r := range st.rtts {
		byWorker[r.worker] = append(byWorker[r.worker], r)
		us := float64(r.end-r.start) / 1e3
		switch r.path {
		case "/v1/lease":
			lease = append(lease, us)
			if r.points == 0 {
				empty++
			}
		case "/v1/complete":
			complete = append(complete, us)
		}
	}
	// Spans are recorded relative to the tracer's clock.
	off := st.b.t0.Sub(tr.t0).Nanoseconds()
	clip := func(a, b int64) int64 { return max(0, min(b, st.done)-max(a, st.start)) }
	var covered, simulate int64
	idleFrom := st.done
	workers := make([]string, 0, len(byWorker))
	for w := range byWorker {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	for _, w := range workers {
		rs := byWorker[w]
		sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
		root := tr.add("svc.worker", w, 0, rs[0].start+off, rs[len(rs)-1].end+off)
		workedUntil := rs[0].end
		for i, r := range rs {
			tr.add("svc."+r.path[len("/v1/"):], w, root, r.start+off, r.end+off)
			covered += clip(r.start, r.end)
			if r.path != "/v1/lease" || r.done || i+1 == len(rs) {
				continue
			}
			name := "svc.simulate"
			if r.points == 0 {
				name = "svc.idle"
			}
			next := rs[i+1].start
			tr.add(name, w, root, r.end+off, next+off)
			covered += clip(r.end, next)
			if r.points > 0 {
				simulate += clip(r.end, next)
				if next <= st.done {
					workedUntil = next
				}
			}
		}
		idleFrom = min(idleFrom, workedUntil)
	}
	window := float64(st.done-st.start) * float64(svcWorkers)
	tail := float64(st.done-idleFrom) / 1e6
	m := map[string]float64{
		"svc.lease_rtt_us_p50":     percentile(lease, 0.5),
		"svc.lease_rtt_us_p90":     percentile(lease, 0.9),
		"svc.lease_rtt_samples":    float64(len(lease)),
		"svc.complete_rtt_us_p50":  percentile(complete, 0.5),
		"svc.complete_rtt_us_p90":  percentile(complete, 0.9),
		"svc.complete_rtt_samples": float64(len(complete)),
		"svc.handler_us_p50":       percentile(st.handlerNS, 0.5) / 1e3,
		"svc.handler_samples":      float64(len(st.handlerNS)),
		"svc.empty_lease_ratio":    float64(empty) / float64(max(len(lease), 1)),
		"svc.tail_idle_ms":         tail,
		"svc.simulate_share":       float64(simulate) / window,
		"svc.retries":              float64(st.retries),
		"svc.duplicates":           float64(cs.Duplicates),
	}
	return m, float64(covered) / window
}
