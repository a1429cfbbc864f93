package stream

import (
	"context"
	"errors"
	"strings"
	"testing"

	"streamcount/internal/graph"
)

// collectSub records every update it is fed and can be told to fail.
type collectSub struct {
	got     []Update
	failAt  int // fail when len(got) reaches failAt (0: never)
	batches int
}

func (c *collectSub) ConsumeBatch(batch []Update) error {
	c.batches++
	c.got = append(c.got, batch...)
	if c.failAt > 0 && len(c.got) >= c.failAt {
		return errors.New("subscriber boom")
	}
	return nil
}

func broadcastStream(t *testing.T, n int64, edges ...[2]int64) *Slice {
	t.Helper()
	ups := make([]Update, len(edges))
	for i, e := range edges {
		ups[i] = Update{Edge: graph.Edge{U: e[0], V: e[1]}, Op: Insert}
	}
	sl, err := NewSlice(n, ups)
	if err != nil {
		t.Fatal(err)
	}
	return sl
}

func TestBroadcasterFansOutOnePass(t *testing.T) {
	sl := broadcastStream(t, 5, [2]int64{0, 1}, [2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 4})
	cnt := NewCounter(sl)
	b := NewBroadcaster(cnt)

	a, c := &collectSub{}, &collectSub{}
	if err := b.Replay(context.Background(), a, c); err != nil {
		t.Fatal(err)
	}
	if cnt.Passes() != 1 {
		t.Errorf("two subscribers cost %d passes, want 1", cnt.Passes())
	}
	for name, sub := range map[string]*collectSub{"a": a, "c": c} {
		if int64(len(sub.got)) != sl.Len() {
			t.Errorf("%s saw %d updates, want %d", name, len(sub.got), sl.Len())
		}
		for i, u := range sub.got {
			if u != sl.Updates()[i] {
				t.Errorf("%s update %d: %v != %v", name, i, u, sl.Updates()[i])
			}
		}
	}

	// Second replay with only one subscriber: only the rider is fed.
	if err := b.Replay(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if cnt.Passes() != 2 {
		t.Errorf("total shared passes=%d, want 2", cnt.Passes())
	}
	if int64(len(a.got)) != 2*sl.Len() || int64(len(c.got)) != sl.Len() {
		t.Errorf("updates seen a=%d c=%d, want %d, %d", len(a.got), len(c.got), 2*sl.Len(), sl.Len())
	}
}

func TestBroadcasterNoSubscribersIsFree(t *testing.T) {
	sl := broadcastStream(t, 3, [2]int64{0, 1})
	cnt := NewCounter(sl)
	b := NewBroadcaster(cnt)
	if err := b.Replay(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cnt.Passes() != 0 {
		t.Errorf("empty replay consumed %d passes", cnt.Passes())
	}
}

func TestBroadcasterSubscriberErrorAbortsPass(t *testing.T) {
	sl := broadcastStream(t, 5, [2]int64{0, 1}, [2]int64{1, 2}, [2]int64{2, 3})
	b := NewBroadcaster(sl)
	ok := &collectSub{}
	bad := &collectSub{failAt: 1}
	err := b.Replay(context.Background(), ok, bad)
	if err == nil {
		t.Fatal("failing subscriber should abort the pass")
	}
	if !strings.Contains(err.Error(), "subscriber 1") || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error %q should identify the failing subscriber and cause", err)
	}
}

// cancelSub cancels its context as soon as it has consumed one batch.
type cancelSub struct {
	cancel  context.CancelFunc
	batches int
}

func (c *cancelSub) ConsumeBatch(batch []Update) error {
	c.batches++
	c.cancel()
	return nil
}

// TestBroadcasterReplayChecksContextBetweenBatches: a context canceled during
// a pass stops the replay before the next batch fans out.
func TestBroadcasterReplayChecksContextBetweenBatches(t *testing.T) {
	// Two full batches plus a tail, so an uncancelled pass sees >= 3 batches.
	n := int64(2*DefaultBatchSize + 10)
	ups := make([]Update, 0, n)
	for i := int64(0); i < n-1; i++ {
		ups = append(ups, Update{Edge: graph.Edge{U: i, V: i + 1}, Op: Insert})
	}
	sl, err := NewSlice(n, ups)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub := &cancelSub{cancel: cancel}
	b := NewBroadcaster(sl)
	err = b.Replay(ctx, sub)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("replay error = %v, want context.Canceled", err)
	}
	if sub.batches != 1 {
		t.Errorf("subscriber consumed %d batches after cancel, want 1", sub.batches)
	}
	// An already-canceled context aborts before the first batch.
	sub2 := &collectSub{}
	if err := b.Replay(ctx, sub2); !errors.Is(err, context.Canceled) {
		t.Fatalf("replay on canceled ctx = %v, want context.Canceled", err)
	}
	if sub2.batches != 0 {
		t.Errorf("canceled replay fed %d batches, want 0", sub2.batches)
	}
}
