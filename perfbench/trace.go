package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Spans of one figure
// pass, engine run or control-plane session share a group.
type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Group  string  `json:"group"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Counters are the layer counters read when the span ended.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one pointer test per call site. The
// control-plane clients record concurrently, hence the lock.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	heapPeak uint64
	heap     [1]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 4096)}
	t.heap[0].Name = "/memory/classes/heap/objects:bytes"
	return t
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, group string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Group: group, Start: now})
	return len(t.spans)
}

// end closes span id, attaching the counters read at its boundary, and
// samples the live heap for go.heap_peak_mb.
func (t *tracer) end(id int, counters map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	metrics.Read(t.heap[:])
	if h := t.heap[0].Value.Uint64(); h > t.heapPeak {
		t.heapPeak = h
	}
	s := &t.spans[id-1]
	s.End = now
	s.Counters = counters
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write stores the spans as JSONL under .bench_build/spans, after one
// header line carrying the host fingerprint, and returns the path.
func (t *tracer) write(workload string, seed uint64, h host) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Host     host   `json:"host"`
	}{workload, seed, h}
	if err := enc.Encode(header); err != nil {
		f.Close()
		return "", err
	}
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
