package main

import (
	"bytes"
	"context"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one sent request. Times are offsets from the phase start; in
// the open loop a request is timed from when it was due, so time it spent
// waiting for a free connection counts as latency.
type outcome struct {
	idx    int
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	status int // 0 when the transport failed or timed out
	body   uint64
}

func (o outcome) latency() time.Duration { return o.done - o.due }
func (o outcome) late() time.Duration    { return o.sent - o.due }

// bodies keeps every distinct response body per request index, keyed by
// its hash, for checking after the run.
type bodies map[int]map[uint64][]byte

func (b bodies) add(idx int, h uint64, data []byte) {
	if b[idx] == nil {
		b[idx] = make(map[uint64][]byte)
	}
	if _, ok := b[idx][h]; !ok {
		b[idx][h] = append([]byte(nil), data...)
	}
}

func (b bodies) merge(o bodies) {
	for idx, byHash := range o {
		for h, data := range byHash {
			b.add(idx, h, data)
		}
	}
}

// loadgen sends a workload's requests to one lanternd over at most conns
// keep-alive connections from this single process.
type loadgen struct {
	client *http.Client
	base   string
	mix    *mix
	conns  int
	seen   bodies
}

func newLoadgen(base string, m *mix, conns int) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		base:   base,
		mix:    m,
		conns:  conns,
		seen:   make(bodies),
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// send performs one request, records its body in seen, and returns the
// status (0 when the transport failed or timed out) and the body's hash.
func (g *loadgen) send(ctx context.Context, idx int, buf *bytes.Buffer, seen bodies) (int, uint64) {
	r := g.mix.reqs[idx]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+r.path(), bytes.NewReader(r.body))
	if err != nil {
		return 0, 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, 0
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	sum := h.Sum64()
	seen.add(idx, sum, buf.Bytes())
	return resp.StatusCode, sum
}

// openLoop sends stream[i] when due[i] comes, whether or not earlier
// requests have finished, and waits for all of them.
func (g *loadgen) openLoop(ctx context.Context, stream []int, due []time.Duration) []outcome {
	out := make([]outcome, len(due))
	// Sized to the whole schedule so the dispatcher never blocks: a backlog
	// waits here, and its wait shows up as lateness and latency.
	ready := make(chan int, len(due))
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			local := make(bodies)
			for i := range ready {
				o := outcome{idx: stream[i], due: due[i], sent: time.Since(start)}
				o.status, o.body = g.send(ctx, o.idx, &buf, local)
				o.done = time.Since(start)
				out[i] = o
			}
			mu.Lock()
			g.seen.merge(local)
			mu.Unlock()
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out
}

// closedLoop runs conns clients, each sending its next request as soon as
// the previous one answers, until d has passed. Requests come from stream
// in order, wrapping around if it runs out.
func (g *loadgen) closedLoop(ctx context.Context, stream []int, d time.Duration) []outcome {
	var next atomic.Int64
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			local := make(bodies)
			var mine []outcome
			for time.Since(start) < d && ctx.Err() == nil {
				i := int(next.Add(1)-1) % len(stream)
				now := time.Since(start)
				o := outcome{idx: stream[i], due: now, sent: now}
				o.status, o.body = g.send(ctx, o.idx, &buf, local)
				o.done = time.Since(start)
				mine = append(mine, o)
			}
			mu.Lock()
			out = append(out, mine...)
			g.seen.merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}
