// Package trace is the benchmark's in-memory span recorder. The
// benchmark records a span around every call it makes into a layer of
// the program, and derives further spans from the frame boundaries a Tap
// sees on the sockets, so the program itself is not touched. Spans stay
// in memory during the run and are written out once, at exit.
//
// A nil *Recorder records nothing: the untraced run passes nil and pays
// one pointer comparison per call site.
package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// SpanID names a span inside one Recorder; 0 is "no span".
type SpanID int32

// Span is one timed interval at a layer boundary.
type Span struct {
	ID SpanID `json:"id"`
	// Parent is the span that caused this one (0 for a root).
	Parent SpanID `json:"parent,omitempty"`
	// Round identifies the request the span belongs to; spans of one
	// request share it.
	Round int64 `json:"round"`
	// Layer is the module of the program the time was spent in.
	Layer string `json:"layer"`
	Name  string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Units is how many items the call processed (signatures in a page,
	// say), for per-item figures; 0 means one.
	Units int `json:"units,omitempty"`
}

// Recorder collects spans. It is safe for concurrent use.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// New returns an empty recorder whose clock starts now.
func New() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its id; End closes it.
func (r *Recorder) Begin(layer, name string, parent SpanID, round int64) SpanID {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	id := SpanID(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Round: round, Layer: layer, Name: name, Start: now, End: now})
	r.mu.Unlock()
	return id
}

// End closes a span opened by Begin.
func (r *Recorder) End(id SpanID) { r.EndUnits(id, 0) }

// EndUnits closes a span and records how many items it processed.
func (r *Recorder) EndUnits(id SpanID, units int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.spans[id-1].Units = units
	r.mu.Unlock()
}

// Add records a span whose edges were observed elsewhere — two frame
// boundaries on a socket, or two callbacks.
func (r *Recorder) Add(layer, name string, parent SpanID, round int64, start, end time.Time) SpanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := SpanID(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Round: round, Layer: layer, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	r.mu.Unlock()
	return id
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, for every span (indexed like spans), its duration
// minus the part of that interval its child spans cover. Overlapping
// children are counted once.
func SelfTimes(spans []Span) []int64 {
	children := make(map[SpanID][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] -= covered
	}
	return self
}

// Agg sums the spans of one layer.name.
type Agg struct {
	Count int   `json:"count"`
	Units int   `json:"units"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// MeanSelf is the mean self time per span, in nanoseconds.
func (a Agg) MeanSelf() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Self) / float64(a.Count)
}

// PerUnit is the mean self time per processed item, in nanoseconds.
func (a Agg) PerUnit() float64 {
	if a.Units == 0 {
		return a.MeanSelf()
	}
	return float64(a.Self) / float64(a.Units)
}

// Summary aggregates the recorded spans by "layer.name".
func (r *Recorder) Summary() map[string]Agg {
	spans := r.Spans()
	self := SelfTimes(spans)
	out := make(map[string]Agg)
	for i, s := range spans {
		k := s.Layer + "." + s.Name
		a := out[k]
		a.Count++
		if s.Units > 0 {
			a.Units += s.Units
		} else {
			a.Units++
		}
		a.Total += s.End - s.Start
		a.Self += self[i]
		out[k] = a
	}
	return out
}

// WriteFile writes the spans and their summary as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(struct {
		Summary map[string]Agg `json:"summary"`
		Spans   []Span         `json:"spans"`
	}{r.Summary(), r.Spans()})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
