package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Start and End are seconds since the tracer's origin; Parent is the ID of
// the enclosing span (0 for a top-level span). Spans of one workload run
// share Run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Run    string  `json:"run"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer records spans in memory; they are written out once, when the
// benchmark ends. A disabled tracer (the untraced, end-to-end run) records
// nothing, so the only cost left in the measured path is a branch.
type tracer struct {
	on     bool
	run    string
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, run string) *tracer {
	return &tracer{on: on, run: run, origin: time.Now()}
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.origin).Seconds() }

// begin opens a span under parent and returns its ID (0 when disabled).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: now, Run: t.run})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// adopt grafts spans recorded by another tracer (a child process) under
// parent, renumbering their IDs. The child's tracer shares this tracer's
// origin (legSpec.Origin), so its times need no shifting.
func (t *tracer) adopt(child []span, parent int) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Run = t.run
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfRow is one line of the self-time table: every span of one name,
// with the time its children do not cover.
type selfRow struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its child spans cover (children of one
// parent run one after another in this benchmark, so their durations
// sum without overlap).
func selfTimes(spans []span) []selfRow {
	childDur := make(map[int]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			childDur[s.Parent] += s.dur()
		}
	}
	rows := make(map[string]*selfRow)
	var order []string
	for _, s := range spans {
		r, ok := rows[s.Name]
		if !ok {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		r.Calls++
		r.Total += s.dur()
		r.Self += s.dur() - childDur[s.ID]
	}
	out := make([]selfRow, 0, len(order))
	for _, n := range order {
		out = append(out, *rows[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// unattributed returns the wall time of span root and the part of it
// that none of root's direct children covers.
func unattributed(spans []span, root int) (wall, rest float64) {
	covered := 0.0
	for _, s := range spans {
		if s.ID == root {
			wall = s.dur()
		}
		if s.Parent == root {
			covered += s.dur()
		}
	}
	return wall, wall - covered
}

func writeSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "  %-28s %7s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %7d %12.6f %12.6f\n", r.Name, r.Calls, r.Total, r.Self)
	}
}

// writeJSONFile writes doc as an indented JSON document, creating the
// directory first.
func writeJSONFile(path string, doc any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
