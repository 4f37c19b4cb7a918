package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a request's root span
	Req    int64  `json:"req"`    // request id shared by a request's spans
	Name   string `json:"name"`
	Class  string `json:"class"` // operation class, e.g. "scan" or "insert"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newRequest returns a fresh request id.
func (t *tracer) newRequest() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its id.
func (t *tracer) begin(req, parent int64, name, class string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req,
		Name: name, Class: class, Start: now, End: -1})
	return int64(len(t.spans))
}

// end closes span id and returns its duration.
func (t *tracer) end(id int64) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every closed span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that
// its direct children cover. Children may nest or overlap each other;
// overlapping stretches count once, and any part of a child outside
// the parent is ignored.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// spanIndex groups closed spans for per-layer aggregation.
type spanIndex struct {
	children map[int64][]span
	byName   map[string][]span // key: name + "|" + class
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{children: map[int64][]span{}, byName: map[string][]span{}}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
		k := s.Name + "|" + s.Class
		ix.byName[k] = append(ix.byName[k], s)
	}
	return ix
}

// medianDur is the median duration of the spans with name and class,
// in unit.
func (ix *spanIndex) medianDur(name, class string, unit time.Duration) float64 {
	var ss samples
	for _, s := range ix.byName[name+"|"+class] {
		ss.addDur(s.dur(), unit)
	}
	return ss.median()
}

// medianSelf is the median self time of the spans with name and class,
// in unit.
func (ix *spanIndex) medianSelf(name, class string, unit time.Duration) float64 {
	var ss samples
	for _, s := range ix.byName[name+"|"+class] {
		ss.addDur(selfTime(s, ix.children[s.ID]), unit)
	}
	return ss.median()
}

// writeTrace writes the run's spans under the run's scratch directory's
// parent, named after the workload and seed, where they outlive the run.
func writeTrace(o *options, tr *tracer) error {
	path := fmt.Sprintf("%s-%s-seed%d.spans.jsonl", strings.TrimSuffix(o.work, "/"), o.workload, o.seed)
	if err := tr.writeJSONL(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
