package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation share
// Op; Parent is the id of the span that caused this one (-1 for an operation's
// root). Times are offsets from the tracer's start.
type span struct {
	Name       string
	Op         int
	ID, Parent int
	Start, End time.Duration
}

// tracer keeps spans in memory; they are written out when the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per seam.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	return t.beginAt(time.Now(), name, op, parent)
}

// beginAt is begin for a span that started at an instant already past.
func (t *tracer) beginAt(at time.Time, name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: at.Sub(t.t0), End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the duration of every closed span called name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			ds = append(ds, s.End-s.Start)
		}
	}
	return ds
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name  string
	Count int
	Self  time.Duration // summed over all spans of this name
}

// selfTimes computes each span's self time — its duration minus the part of
// it that its child spans cover — summed per span name. The self times of an
// operation's spans add up to its root span where children nest inside their
// parents, and to more only where sibling spans overlap each other. Probe
// spans (Op < 0) are left out.
func (t *tracer) selfTimes() (rows []layerRow) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.End >= 0 && s.Op >= 0 && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerRow{}
	for _, s := range t.spans {
		if s.End < 0 || s.Op < 0 {
			continue
		}
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		covered, upTo := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.Self += s.End - s.Start - covered
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	slices.SortFunc(rows, func(a, b layerRow) int { return int(b.Self - a.Self) })
	return rows
}

// writeChrome writes the spans as Chrome trace-event JSON (open it in
// chrome://tracing or ui.perfetto.dev). Each operation is its own lane.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op + 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"op": s.Op, "id": s.ID, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
