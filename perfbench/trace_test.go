package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	const u = time.Microsecond
	spans := []span{
		{Name: "request", Start: 0, End: 100 * u, Parent: -1},
		{Name: "a", Start: 10 * u, End: 30 * u, Parent: 0},
		{Name: "b", Start: 40 * u, End: 70 * u, Parent: 0},
		{Name: "b.child", Start: 45 * u, End: 55 * u, Parent: 2},
		// Overlapping children: their union (80..95) counts once.
		{Name: "c1", Start: 80 * u, End: 90 * u, Parent: 0},
		{Name: "c2", Start: 85 * u, End: 95 * u, Parent: 0},
		// A second root with a child running past it: clipped to the root.
		{Name: "request", Start: 200 * u, End: 210 * u, Parent: -1},
		{Name: "late", Start: 205 * u, End: 230 * u, Parent: 6},
	}
	want := []time.Duration{
		100*u - 20*u - 30*u - 15*u, // request: minus a, b and the c1∪c2 union
		20 * u,
		30*u - 10*u, // b minus its child
		10 * u,
		10 * u,
		10 * u,
		5 * u,
		25 * u,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", -1, 0)
	tr.end(i)
	if i != -1 {
		t.Errorf("nil tracer returned span %d", i)
	}
	real := newTracer()
	root := real.begin("request", -1, 3)
	child := real.begin("engine.plan", root, 3)
	real.end(child)
	real.end(root)
	if len(real.spans) != 2 || real.spans[1].Parent != root || real.spans[1].Req != 3 || real.spans[0].End < real.spans[1].End {
		t.Errorf("spans %+v", real.spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, real.spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 2 || !strings.Contains(string(b), `"name":"engine.plan"`) {
		t.Errorf("span file:\n%s", b)
	}
}
