package transform

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"streamcount/internal/sketch"
)

// netFeedSaves applies feed, cut into blocks at cuts, to two samplers armed
// alike — one takes every block as buffered, the other what netFeed leaves of
// it — under the pass geometry and under one small enough that most cells
// hold collisions. The samplers must end up deeply equal: the cells are
// compared, not the samples, so a difference that a lucky Sample would hide
// still fails. It returns how many entries netting saved the samplers.
func netFeedSaves(t testing.TB, feed []sketch.FeedEntry, cuts []int) (saved int) {
	t.Helper()
	base := sketch.RandomFieldBase(24)
	var (
		r  TurnstileRunner
		sc sketch.L0Scratch
	)
	for _, cfg := range []sketch.L0Config{defaultL0Config(700), {Levels: 3, Buckets: 2, Reps: 1}} {
		raw := sketch.NewL0SamplerWithBase(7, base, cfg)
		net := sketch.NewL0SamplerWithBase(7, base, cfg)
		lo := 0
		for _, hi := range slices.Concat(cuts, []int{len(feed)}) {
			block := slices.Clone(feed[lo:hi])
			sketch.FillFeed(base, block)
			raw.UpdateFeed(block, &sc)
			netted := r.netFeed(slices.Clone(feed[lo:hi]))
			saved += hi - lo - len(netted)
			sketch.FillFeed(base, netted)
			net.UpdateFeed(netted, &sc)
			lo = hi
		}
		if !reflect.DeepEqual(raw, net) {
			t.Fatalf("config %+v, cuts %v: netted blocks leave other cells than the raw feed", cfg, cuts)
		}
	}
	return saved
}

// TestNetFeedKeepsCells: netting a block by key changes no sampler cell. The
// feed is three blocks of ±1 updates over as many keys as a block has
// entries, so keys repeat inside a block and across blocks, with one planted
// key per case netting has: inserted twice in a block (net +2), deleted in
// the block after its insert (net −1 there), inserted and deleted in one
// block (dropped), and inserted and deleted on either side of a cut (kept).
// It is cut at block boundaries one short and one over feedBlock, and at
// random short ones.
func TestNetFeedKeepsCells(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	feed := make([]sketch.FeedEntry, 3*feedBlock)
	for i := range feed {
		feed[i] = sketch.FeedEntry{Key: uint64(rng.Intn(feedBlock)), Delta: 1 - 2*int64(rng.Intn(5)/3)}
	}
	const twice, late, cancelled, straddling = 1 << 40, 1<<40 + 1, 1<<40 + 2, 1<<40 + 3
	feed[0], feed[9] = sketch.FeedEntry{Key: twice, Delta: 1}, sketch.FeedEntry{Key: twice, Delta: 1}
	feed[1], feed[feedBlock+5] = sketch.FeedEntry{Key: late, Delta: 1}, sketch.FeedEntry{Key: late, Delta: -1}
	feed[2], feed[feedBlock-3] = sketch.FeedEntry{Key: cancelled, Delta: 1}, sketch.FeedEntry{Key: cancelled, Delta: -1}
	feed[feedBlock-2], feed[feedBlock-1] = sketch.FeedEntry{Key: straddling, Delta: 1}, sketch.FeedEntry{Key: straddling, Delta: -1}

	var r TurnstileRunner
	first := r.netFeed(slices.Clone(feed[:feedBlock-1]))
	second := r.netFeed(slices.Clone(feed[feedBlock-1 : 2*feedBlock]))
	delta := func(block []sketch.FeedEntry, key uint64) int64 {
		i := slices.IndexFunc(block, func(e sketch.FeedEntry) bool { return e.Key == key })
		if i < 0 {
			return 0
		}
		return block[i].Delta
	}
	if first[0].Key != twice || first[0].Delta != 2 || delta(second, late) != -1 || delta(first, cancelled) != 0 ||
		delta(first, straddling) != 1 || delta(second, straddling) != -1 {
		t.Errorf("planted keys net to twice %+v, late %d, cancelled %d, straddling %d/%d; want +2 first, -1, 0 (dropped), +1/-1",
			first[0], delta(second, late), delta(first, cancelled), delta(first, straddling), delta(second, straddling))
	}

	if saved := netFeedSaves(t, feed, []int{feedBlock - 1, 2 * feedBlock}); saved < feedBlock {
		t.Errorf("netting three blocks saved %d entries, expected over a third of them", saved)
	}
	var cuts []int
	for at := rng.Intn(2000); at < len(feed); at += rng.Intn(2000) {
		cuts = append(cuts, at)
	}
	netFeedSaves(t, feed, cuts)
}

// FuzzNetFeed is TestNetFeedKeepsCells on arbitrary feeds: two bytes per
// entry — a cut-before flag, a flag that moves the key up to 2⁶², where
// keySum wraps, and six key bits, then a signed delta — so keys repeat, deltas
// run from −128 to 127 and sum to anything, and blocks are cut anywhere.
func FuzzNetFeed(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0xff, 2, 1, 0x81, 1, 2, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			feed []sketch.FeedEntry
			cuts []int
		)
		for ; len(data) >= 2; data = data[2:] {
			if data[0]&0x80 != 0 {
				cuts = append(cuts, len(feed))
			}
			feed = append(feed, sketch.FeedEntry{Key: uint64(data[0]&0x40)<<56 | uint64(data[0]&0x3f), Delta: int64(int8(data[1]))})
		}
		netFeedSaves(t, feed, cuts)
	})
}
