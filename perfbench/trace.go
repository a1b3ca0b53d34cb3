package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // operation the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the process's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// record stores a finished span and returns its id.
func (t *tracer) record(parent, op int, name string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// open starts a span whose children are recorded before it ends.
func (t *tracer) open(parent, op int, name string, start int64) int {
	return t.record(parent, op, name, start, 0)
}

// close ends a span opened with open.
func (t *tracer) close(id int, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// write saves the spans as JSON lines under the build directory.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir, err := outDir()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	return path, f.Close()
}
