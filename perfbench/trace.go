package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Times are nanoseconds since the
// tracer started. Parent 0 means a root; Run groups the spans of one
// pass or one svc worker.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, when the
// run ends, so recording costs one clock read and an append. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID (IDs start at 1).
func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, Start: start, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name, run string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, Start: start, End: end})
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStat sums the spans of one name.
type layerStat struct {
	Calls  int   `json:"calls"`
	Total  int64 `json:"total_ns"`
	SelfNS int64 `json:"self_ns"`
}

func (l layerStat) meanUS() float64 {
	if l.Calls == 0 {
		return 0
	}
	return float64(l.Total) / float64(l.Calls) / 1e3
}

// layers aggregates spans by name, with each span's self time: its
// duration minus the time its children cover (children of one parent
// never overlap in this benchmark).
func layers(spans []span) map[string]layerStat {
	child := make(map[int]int64)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			child[p] += spans[i].dur()
		}
	}
	out := make(map[string]layerStat)
	for i := range spans {
		s := &spans[i]
		l := out[s.Name]
		l.Calls++
		l.Total += s.dur()
		l.SelfNS += s.dur() - child[s.ID]
		out[s.Name] = l
	}
	return out
}

// filterRun keeps the spans of runs whose name has the given prefix.
func filterRun(spans []span, prefix string) []span {
	var out []span
	for _, s := range spans {
		if strings.HasPrefix(s.Run, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// traceFile is what a traced run leaves behind for inspection.
type traceFile struct {
	Workload   string                          `json:"workload"`
	Seed       int64                           `json:"seed"`
	Layers     map[string]map[string]layerStat `json:"layers"`
	CPUBuckets map[string]float64              `json:"cpu_buckets"`
	Spans      []span                          `json:"spans"`
}

func writeTrace(path string, tf *traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// percentile returns the p-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
