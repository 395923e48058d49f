package main

import (
	"bytes"
	"sync"
	"time"

	"iothub/internal/fleetd"
)

// rpcStats collects what the timing transports of one or more service
// passes saw: per-path RPC latencies, wire bytes and shard durations.
type rpcStats struct {
	mu     sync.Mutex
	rpcMs  map[string][]float64 // "/lease" → latencies
	bytes  int64
	shards []float64 // lease reply → next submit, ms
}

func newRPCStats() *rpcStats { return &rpcStats{rpcMs: map[string][]float64{}} }

func (s *rpcStats) rpc(path string, d time.Duration, n int) {
	s.mu.Lock()
	s.rpcMs[path] = append(s.rpcMs[path], ms(d))
	s.bytes += int64(n)
	s.mu.Unlock()
}

func (s *rpcStats) shard(d time.Duration) {
	s.mu.Lock()
	s.shards = append(s.shards, ms(d))
	s.mu.Unlock()
}

// timedTransport wraps one worker's transport: it times every call, counts
// request and reply bytes, and times each shard from the lease reply that
// granted it to the start of the submit that returns it. Lease and submit
// come from the worker's own goroutine, heartbeats from its heartbeat
// goroutine, so only the shared stats need a lock.
type timedTransport struct {
	inner  fleetd.Transport
	tr     *tracer
	parent int
	stats  *rpcStats

	shardStart time.Time
	shardSpan  int
}

// shardGranted matches a lease reply that carries a shard.
var shardGranted = []byte(`"shard":`)

// Call implements fleetd.Transport.
func (t *timedTransport) Call(path string, body []byte) ([]byte, error) {
	start := time.Now()
	if path == "/submit" && !t.shardStart.IsZero() {
		t.stats.shard(start.Sub(t.shardStart))
		t.tr.end(t.shardSpan)
		t.shardStart = time.Time{}
	}
	id := t.tr.begin("fleetd.rpc", path, t.parent)
	resp, err := t.inner.Call(path, body)
	t.tr.end(id)
	t.stats.rpc(path, time.Since(start), len(body)+len(resp))
	if path == "/lease" && err == nil && bytes.Contains(resp, shardGranted) {
		t.shardStart = time.Now()
		t.shardSpan = t.tr.begin("fleetd.shard", "shard", t.parent)
	}
	return resp, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
