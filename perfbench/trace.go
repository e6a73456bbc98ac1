package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are offsets from the tracer's epoch.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int // index of the parent span, -1 for a root
	Req    int
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced replay runs the same code with no span cost
// beyond the nil checks.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.epoch)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children are merged first, so
// concurrent children are not subtracted twice; a child running past its
// parent is clipped to the parent's interval.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var curA, curB time.Duration
		for j, v := range ivs {
			switch {
			case j == 0:
				curA, curB = v.a, v.b
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n",
			s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds(), s.Parent, s.Req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
