package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// slowServer answers every request after d.
func slowServer(t *testing.T, d time.Duration) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		w.Write([]byte(`{"op":"pool","pool":{"affected":1,"rows":null,"template":""}}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func oneRequestMix() *mix {
	m := newMix()
	m.intern("x", func() (*request, error) { return &request{op: opPool, stmt: "x"}, nil })
	return m
}

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	const service = 40 * time.Millisecond
	srv := slowServer(t, service)
	g := newLoadgen(srv.URL, oneRequestMix(), 1)
	defer g.close()
	// Three requests due at once on one connection: the second waits for
	// the first, the third for both, and both waits count.
	out := g.openLoop(context.Background(), []int{0, 0, 0}, []time.Duration{0, 0, 0})
	for i, o := range out {
		if o.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, o.status)
		}
		if o.latency() < time.Duration(i+1)*service {
			t.Errorf("request %d: latency %v, want at least %v", i, o.latency(), time.Duration(i+1)*service)
		}
		if o.late() < time.Duration(i)*service {
			t.Errorf("request %d: sent %v late, want at least %v", i, o.late(), time.Duration(i)*service)
		}
		if o.latency() != o.late()+(o.done-o.sent) {
			t.Errorf("request %d: latency %v is not lateness %v plus service %v", i, o.latency(), o.late(), o.done-o.sent)
		}
	}
	if n := len(g.seen[0]); n != 1 {
		t.Errorf("%d distinct bodies kept, want 1", n)
	}
}

func TestOpenLoopOnScheduleIsNotLate(t *testing.T) {
	srv := slowServer(t, time.Millisecond)
	g := newLoadgen(srv.URL, oneRequestMix(), 2)
	defer g.close()
	due := []time.Duration{0, 30 * time.Millisecond, 60 * time.Millisecond}
	out := g.openLoop(context.Background(), []int{0, 0, 0}, due)
	for i, o := range out {
		if o.sent < due[i] {
			t.Errorf("request %d sent at %v, before it was due at %v", i, o.sent, due[i])
		}
		if o.late() > 20*time.Millisecond {
			t.Errorf("request %d sent %v late on an idle server", i, o.late())
		}
	}
}

func TestClosedLoopStopsAfterItsDuration(t *testing.T) {
	srv := slowServer(t, 5*time.Millisecond)
	g := newLoadgen(srv.URL, oneRequestMix(), 2)
	defer g.close()
	start := time.Now()
	out := g.closedLoop(context.Background(), []int{0}, 100*time.Millisecond)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("closed loop ran %v", took)
	}
	if len(out) < 4 {
		t.Fatalf("only %d requests in 100ms with 2 clients", len(out))
	}
	for _, o := range out {
		if o.late() != 0 {
			t.Fatalf("closed-loop request sent %v after it was issued", o.late())
		}
	}
}
