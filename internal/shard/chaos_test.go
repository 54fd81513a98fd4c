package shard

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/fault"
)

// These tests are the headline proof of the sharding subsystem: a
// composite `,`-sequence trigger whose first event fires on shard A (a
// Chain trigger action posting to a B-owned object) and whose second
// fires on shard B must complete EXACTLY once, with the forward link
// killed at every frame boundary — before any frame (dial failure),
// after the request frame (apply succeeds, ack lost, redelivery), and
// after the ack frame (corrupted or cut acks force a resend the
// watermark must absorb).

// faultProxy relays front connections to backend, routing the
// request-bound byte stream (what the forwarder sends) through plan —
// so an armed cut kills the link right after the Nth request frame was
// delivered to the shard: the batch applies, the ack is lost.
func faultProxy(t *testing.T, backend string, plan *fault.NetPlan) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			front, err := ln.Accept()
			if err != nil {
				return
			}
			back, err := net.Dial("tcp", backend)
			if err != nil {
				front.Close()
				continue
			}
			wrapped := plan.Wrap(front)
			go func() {
				io.Copy(back, wrapped) // requests, faulted
				back.Close()
				front.Close()
			}()
			go func() {
				io.Copy(front, back) // acks, clean
				front.Close()
				back.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// runCrossShardRounds drives the headline scenario on a 2-shard
// cluster: rounds cross-shard captures (Chain on shard 0 posts First to
// a shard-1 Doc), each waited to full settlement, then the completing
// Second events — and asserts every composite fired exactly once.
func runCrossShardRounds(t *testing.T, c *testCluster, rounds int) {
	t.Helper()
	targets := make([]uint64, rounds)
	sources := make([]uint64, rounds)
	for i := 0; i < rounds; i++ {
		targets[i] = mkDoc(t, c.nodes[1], &Doc{})
		activate(t, c.nodes[1], targets[i], "Pair")
		sources[i] = mkDoc(t, c.nodes[0], &Doc{Next: targets[i]})
		activate(t, c.nodes[0], sources[i], "Chain")
	}
	for i := 0; i < rounds; i++ {
		post(t, c.nodes[0], sources[i], "Kick")
		// Settlement = the capture was forwarded, applied on shard 1,
		// acked, and trimmed — however many cuts it took.
		waitFor(t, 10*time.Second, fmt.Sprintf("round %d outbox drain", i), func() bool {
			return len(c.nodes[0].db.SettledOutbox()) == 0
		})
	}
	for i := 0; i < rounds; i++ {
		post(t, c.nodes[1], targets[i], "Second")
	}
	for i := 0; i < rounds; i++ {
		if got := audits(t, c.nodes[1], targets[i]); got != 1 {
			t.Fatalf("round %d: composite fired %d times, want exactly 1", i, got)
		}
	}
}

// ingested reads the receiver's dedup counters: shard.ingested counts
// each cross-shard event once however often it was redelivered.
func ingested(n *testNode) (events, dups uint64) {
	for _, mv := range n.db.Observability().Snapshot() {
		switch mv.Name {
		case "shard.ingested":
			events = mv.Value
		case "shard.ingest_dups":
			dups = mv.Value
		}
	}
	return events, dups
}

// proxied routes shard 0's forward link to shard 1 through a
// faultProxy running plan.
func proxied(t *testing.T, plan *fault.NetPlan) clusterConfig {
	var once sync.Once
	var proxyAddr string
	return clusterConfig{
		noRouter: true,
		fwdAddrs: func(addrs []string) []string {
			once.Do(func() { proxyAddr = faultProxy(t, addrs[1], plan) })
			out := append([]string(nil), addrs...)
			out[1] = proxyAddr
			return out
		},
	}
}

// dialing makes shard 0 open its forward link with dial.
func dialing(dial func(string, time.Duration) (net.Conn, error)) clusterConfig {
	return clusterConfig{
		noRouter: true,
		dialFor: func(self int) func(string, time.Duration) (net.Conn, error) {
			if self != 0 {
				return nil
			}
			return dial
		},
	}
}

// cutSweep runs the three-round scenario once per fault position k =
// 1, 2, … until the fault armed at k no longer fires. Every round
// sends at least one frame, so at least that many positions must fire,
// and after each one the receiver must have ingested each event once.
func cutSweep(t *testing.T, name string, arm func(t *testing.T, k uint64) (*fault.NetPlan, clusterConfig), fired func(*fault.NetPlan) bool) {
	const rounds = 3
	n, err := fault.Enumerate(func(k uint64) (hit bool, err error) {
		t.Run(fmt.Sprintf("%s_%d", name, k), func(t *testing.T) {
			plan, cfg := arm(t, k)
			c := startCluster(t, 2, cfg)
			runCrossShardRounds(t, c, rounds)
			if hit = fired(plan); hit {
				if got, _ := ingested(c.nodes[1]); got != rounds {
					t.Fatalf("shard.ingested = %d with the fault at frame %d, want %d", got, k, rounds)
				}
			}
		})
		return hit, nil
	})
	if err != nil || n < rounds {
		t.Fatalf("%d fault positions fired over %d rounds: %v", n, rounds, err)
	}
}

// TestCrossShardExactlyOnceRequestCutSweep kills the forward link right
// after the k-th request frame. The batch lands, the ack dies with the
// link; the resend must be absorbed by the receiver's watermark.
func TestCrossShardExactlyOnceRequestCutSweep(t *testing.T) {
	cutSweep(t, "cut_after_request", func(t *testing.T, k uint64) (*fault.NetPlan, clusterConfig) {
		plan := fault.NewNetPlan(int64(k)).CutAfterFrames(k)
		return plan, proxied(t, plan)
	}, (*fault.NetPlan).Fired)
}

// TestCrossShardExactlyOnceAckCutSweep faults the ack stream instead:
// the k-th ack frame is corrupted (the link then cut one frame later),
// so the forwarder cannot trust the ack and must resend a batch the
// receiver has already applied.
func TestCrossShardExactlyOnceAckCutSweep(t *testing.T) {
	cutSweep(t, "corrupt_ack", func(t *testing.T, k uint64) (*fault.NetPlan, clusterConfig) {
		plan := fault.NewNetPlan(int64(k)).CorruptFrame(k).CutAfterFrames(k + 1)
		return plan, dialing(plan.Dialer())
	}, func(p *fault.NetPlan) bool { return p.Counters().Corruptions > 0 })
}

// TestCrossShardExactlyOnceDialFailures covers the boundary before any
// frame: the first dials fail outright (the link is down), then heal.
func TestCrossShardExactlyOnceDialFailures(t *testing.T) {
	var remaining atomic.Int32
	remaining.Store(3)
	c := startCluster(t, 2, dialing(func(addr string, timeout time.Duration) (net.Conn, error) {
		if remaining.Add(-1) >= 0 {
			return nil, errors.New("injected: link down")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}))
	runCrossShardRounds(t, c, 2)
	if left := remaining.Load(); left > 0 {
		t.Fatalf("%d injected dial failures never consumed", left)
	}
}

// TestCrossShardBatchRedeliveryCounters pins the dedup bookkeeping: a
// cut-ack redelivery must show up in shard.ingest_dups on the receiver,
// while shard.ingested counts each event exactly once.
func TestCrossShardBatchRedeliveryCounters(t *testing.T) {
	c := startCluster(t, 2, proxied(t, fault.NewNetPlan(7).CutAfterFrames(1)))
	runCrossShardRounds(t, c, 2)
	events, dups := ingested(c.nodes[1])
	if events != 2 {
		t.Fatalf("shard.ingested = %d, want 2 (one per cross-shard event)", events)
	}
	if dups == 0 {
		t.Fatal("shard.ingest_dups = 0: the lost-ack redelivery was never observed")
	}
}
