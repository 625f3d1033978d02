package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one harness-owned interval. The op root spans wrap the public
// entry calls; every probe call is a child of the single probe root. No
// span is recorded inside the program: that is a later change, and until
// then the program's own tracer is identically on in every run.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// add records a finished interval and returns its span ID.
func (r *recorder) add(parent int, name string, op int, begin time.Time, took time.Duration) int {
	start := begin.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload, Op: op,
		StartNS: start, EndNS: start + took.Nanoseconds(),
	})
	return id
}

// flush writes every span to dir/trace-<workload>.json.
func (r *recorder) flush(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
