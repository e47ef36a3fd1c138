package fleet

import (
	"testing"
	"time"

	"coldboot/internal/core"
)

// fakeClock drives the board's monotonic clock by hand.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64      { return c.t }
func (c *fakeClock) advance(d int64) { c.t += d }
func testShards(n, blocks int) []core.Shard {
	out := make([]core.Shard, n)
	for i := range out {
		out[i] = core.Shard{Index: i, FirstBlock: i * blocks, Blocks: blocks}
	}
	return out
}

func testBoard(n int, ttl time.Duration) (*Board, *fakeClock) {
	clk := &fakeClock{}
	b := NewBoard(testShards(n, 128), ttl, nil, nil)
	b.now = clk.now
	return b, clk
}

func result(sh core.Shard) core.ShardResult {
	return core.ShardResult{Shard: sh, Pairs: int64(sh.Index + 1)}
}

func TestBoardLeaseCompleteFlow(t *testing.T) {
	b, _ := testBoard(2, time.Minute)
	l1, ok1 := b.Lease("w1")
	l2, ok2 := b.Lease("w2")
	if !ok1 || !ok2 {
		t.Fatal("two shards, two leases expected")
	}
	if l1.Shard.Index == l2.Shard.Index {
		t.Fatal("same shard leased twice with queue non-empty")
	}
	if _, ok := b.Complete(l1.ID, result(l1.Shard)); !ok {
		t.Fatal("first completion rejected")
	}
	select {
	case <-b.Done():
		t.Fatal("board done with a shard outstanding")
	default:
	}
	if _, ok := b.Complete(l2.ID, result(l2.Shard)); !ok {
		t.Fatal("second completion rejected")
	}
	select {
	case <-b.Done():
	default:
		t.Fatal("board not done after all completions")
	}
	results, err := b.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Shard.Index != 0 || results[1].Shard.Index != 1 {
		t.Fatalf("results out of shard order: %+v", results)
	}
	st := b.Stats()
	if st.Done != 2 || st.Queued != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBoardExpiryRequeues(t *testing.T) {
	b, clk := testBoard(1, time.Second)
	l, ok := b.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	clk.advance(int64(2 * time.Second))
	if n := b.Expire(); n != 1 {
		t.Fatalf("Expire requeued %d leases, want 1", n)
	}
	if b.Heartbeat(l.ID) {
		t.Fatal("expired lease heartbeat accepted")
	}
	if _, ok := b.Complete(l.ID, result(l.Shard)); ok {
		t.Fatal("expired lease completion accepted")
	}
	l2, ok := b.Lease("w2")
	if !ok || l2.Shard.Index != l.Shard.Index || l2.Stolen {
		t.Fatalf("requeued shard not re-leased cleanly: %+v ok=%v", l2, ok)
	}
	if st := b.Stats(); st.Requeues != 1 {
		t.Fatalf("Requeues = %d, want 1", st.Requeues)
	}
}

func TestBoardHeartbeatExtendsLease(t *testing.T) {
	b, clk := testBoard(1, time.Second)
	l, _ := b.Lease("w1")
	for i := 0; i < 5; i++ {
		clk.advance(int64(700 * time.Millisecond))
		if !b.Heartbeat(l.ID) {
			t.Fatalf("heartbeat %d rejected", i)
		}
	}
	if _, ok := b.Complete(l.ID, result(l.Shard)); !ok {
		t.Fatal("heartbeat-kept lease could not complete")
	}
	if st := b.Stats(); st.Requeues != 0 {
		t.Fatalf("heartbeats did not prevent requeue (%d)", st.Requeues)
	}
}

// ageOnePastTTL ages a lease past one TTL — the steal bound before any
// completions exist — while a heartbeat keeps it alive.
func ageOnePastTTL(t *testing.T, b *Board, clk *fakeClock, leaseID string) {
	t.Helper()
	clk.advance(b.ttl / 2)
	if !b.Heartbeat(leaseID) {
		t.Fatal("heartbeat rejected")
	}
	clk.advance(b.ttl/2 + 1)
}

// TestBoardWorkStealing: with the queue drained, an idle worker is handed
// a duplicate lease on the straggling shard; the first completion wins and
// the loser's result is dropped.
func TestBoardWorkStealing(t *testing.T) {
	b, clk := testBoard(1, time.Minute)
	orig, ok := b.Lease("slow")
	if !ok {
		t.Fatal("no initial lease")
	}
	ageOnePastTTL(t, b, clk, orig.ID)
	dup, ok := b.Lease("fast")
	if !ok || !dup.Stolen || dup.Shard.Index != orig.Shard.Index {
		t.Fatalf("no stolen duplicate: %+v ok=%v", dup, ok)
	}
	if _, ok := b.Lease("third"); ok {
		t.Fatal("shard with two outstanding leases stolen again")
	}
	if info, ok := b.Complete(dup.ID, result(dup.Shard)); !ok || info.Worker != "fast" || !info.Stolen {
		t.Fatal("stealing worker's completion rejected")
	}
	if _, ok := b.Complete(orig.ID, result(orig.Shard)); ok {
		t.Fatal("losing duplicate's completion accepted")
	}
	st := b.Stats()
	if st.Steals != 1 || st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := b.Results(); err != nil {
		t.Fatal(err)
	}
}

// TestBoardNoStealBeforeBound: an in-flight shard younger than the steal
// bound is never duplicated — one TTL before stragglerSampleFloor
// completions exist, 2x their p99 after — and NextSteal names the instant
// it becomes eligible.
func TestBoardNoStealBeforeBound(t *testing.T) {
	b, clk := testBoard(stragglerSampleFloor+1, time.Minute)
	first, _ := b.Lease("w1")
	clk.advance(int64(30 * time.Second))
	if !b.Heartbeat(first.ID) {
		t.Fatal("heartbeat rejected")
	}
	leases := []Lease{first}
	for i := 1; i < stragglerSampleFloor; i++ {
		l, ok := b.Lease("w1")
		if !ok || l.Stolen {
			t.Fatalf("queued shard %d not leased cleanly: %+v ok=%v", i, l, ok)
		}
		leases = append(leases, l)
	}
	// The ninth shard is still queued; lease it, then the queue is empty.
	last, _ := b.Lease("w2")
	if l, ok := b.Lease("idle"); ok {
		t.Fatalf("shard 30s into a 1m TTL stolen before the floor: %+v", l)
	}
	if d, ok := b.NextSteal(); !ok || d != 30*time.Second+1 {
		t.Fatalf("NextSteal = %v, %v; want 30s+1ns", d, ok)
	}

	// Complete the first stragglerSampleFloor shards, 100ms apart, so the
	// bound switches from the TTL to the completions' p99.
	for _, l := range leases {
		clk.advance(int64(100 * time.Millisecond))
		if _, ok := b.Complete(l.ID, result(l.Shard)); !ok {
			t.Fatalf("completion of %s rejected", l.ID)
		}
	}
	b.mu.Lock()
	bound := b.stealBoundLocked()
	b.mu.Unlock()
	if bound >= b.ttl {
		t.Fatalf("steal bound %v after the floor, want 2x the completions' p99", time.Duration(bound))
	}
	age := clk.t - last.granted
	clk.advance(bound - age) // exactly at the bound: not yet past it
	if l, ok := b.Lease("idle"); ok {
		t.Fatalf("shard at the straggler bound stolen: %+v", l)
	}
	clk.advance(1)
	if l, ok := b.Lease("idle"); !ok || !l.Stolen || l.Shard.Index != last.Shard.Index {
		t.Fatalf("shard past the straggler bound not stolen: %+v ok=%v", l, ok)
	}
}

func TestBoardUnknownLease(t *testing.T) {
	b, _ := testBoard(1, time.Minute)
	if b.Heartbeat("nope") {
		t.Fatal("unknown lease heartbeat accepted")
	}
	if _, ok := b.Complete("nope", core.ShardResult{}); ok {
		t.Fatal("unknown lease completion accepted")
	}
}

func TestBoardEmptyIsDone(t *testing.T) {
	b := NewBoard(nil, time.Minute, nil, nil)
	select {
	case <-b.Done():
	default:
		t.Fatal("empty board not immediately done")
	}
	if _, ok := b.Lease("w"); ok {
		t.Fatal("empty board granted a lease")
	}
}
