package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans live in memory for the
// whole run and are written out once, at the end, so recording one
// costs two clock reads and an append.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     string `json:"op"`     // shared by every span of one request or run
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans from one goroutine. A nil recorder records
// nothing, so the untraced run pays only a nil check per call site.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (r *recorder) begin(parent int, op, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(r.t0)),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// selfTimes sums, per span name, each span's duration minus the part
// of it that its children cover. Children never overlap here: every
// span is recorded from one goroutine.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		out[s.Name] += s.dur() - child[s.ID]
	}
	return out
}

// durations returns the duration of every span named name, in
// recording order.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// write stores the spans and their per-name self times as JSON.
func (r *recorder) write(path string, stamp map[string]string) error {
	self := r.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfTime struct {
		Name string  `json:"name"`
		MS   float64 `json:"self_ms"`
	}
	doc := struct {
		Machine map[string]string `json:"machine"`
		Self    []selfTime        `json:"self_times"`
		Spans   []span            `json:"spans"`
	}{Machine: stamp, Spans: r.spans}
	for _, n := range names {
		doc.Self = append(doc.Self, selfTime{n, float64(self[n]) / 1e6})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
