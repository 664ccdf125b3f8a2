package main

import (
	"fmt"
	"sort"
	"sync/atomic"

	"unbundle/internal/core"
)

// liveWatch is one live consumer and its share of the correctness oracle:
// every committed (key, version) in its key-index range [lo, hi) must arrive
// exactly once, in per-key version order, with no resync. Callbacks for one
// watch run on one goroutine at a time, so its state needs no lock; counters
// other goroutines read are atomic.
type liveWatch struct {
	b      *bench
	idx    int
	lo, hi int32
	last   []uint64 // per key in range: last delivered version

	fresh     []lhist // per open-loop window: due → callback, ns
	delivered atomic.Int64
	fails     atomic.Int64
	progress  atomic.Uint64
	firstFail atomic.Pointer[string]
}

func (w *liveWatch) fail(format string, args ...any) {
	w.fails.Add(1)
	msg := fmt.Sprintf("watch %d: "+format, append([]any{w.idx}, args...)...)
	w.firstFail.CompareAndSwap(nil, &msg)
}

func (w *liveWatch) OnEvent(ev core.ChangeEvent) {
	w.event(&ev, w.b.clk.now())
}

// OnEventBatch receives a local hub's batched hand-off (the remote client
// always delivers per event).
func (w *liveWatch) OnEventBatch(evs []core.ChangeEvent) {
	now := w.b.clk.now()
	for i := range evs {
		w.event(&evs[i], now)
	}
}

func (w *liveWatch) event(ev *core.ChangeEvent, now int64) {
	b := w.b
	seq, k, ok := decodeValue(ev.Mut.Value, b.wl.valueSize)
	switch {
	case !ok || ev.Mut.Op != core.OpPut:
		w.fail("malformed value for %s at %v", ev.Key, ev.Version)
		return
	case seq != uint64(ev.Version) || k < w.lo || k >= w.hi || ev.Key != b.keys[k]:
		w.fail("event %s@%v carries key %d version %d, outside the watch or mislabelled", ev.Key, ev.Version, k, seq)
		return
	case w.last[k-w.lo] >= seq:
		w.fail("key %s: version %d after %d (duplicate or out of order)", ev.Key, seq, w.last[k-w.lo])
		return
	}
	w.last[k-w.lo] = seq
	w.delivered.Add(1)
	if r := b.rows.get(seq); r != nil {
		if due := r.due.Load(); due > 0 {
			if wi := b.window(due); wi < b.nWin {
				if len(w.fresh) == 0 {
					w.fresh = make([]lhist, b.nWin)
				}
				w.fresh[wi].record(now - due)
			}
		}
	}
	if b.tr != nil {
		b.tr.delivered(w.idx, seq, now)
	}
}

func (w *liveWatch) OnProgress(p core.ProgressEvent) {
	if v := uint64(p.Version); v > w.progress.Load() {
		w.progress.Store(v)
	}
}

func (w *liveWatch) OnResync(r core.ResyncEvent) {
	w.fail("unexpected resync over %v: %s", r.Range, r.Reason)
}

// pair is one delivered (key index, version).
type pair struct {
	v uint64
	k int32
}

func sortPairs(ps []pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].v != ps[j].v {
			return ps[i].v < ps[j].v
		}
		return ps[i].k < ps[j].k
	})
}

// expectedPairs lists the generator's commit log over (from, to] restricted
// to key indices in [lo, hi), sorted.
func (b *bench) expectedPairs(from, to uint64, lo, hi int32) []pair {
	var out []pair
	for v := from + 1; v <= to; v++ {
		r := b.rows.get(v)
		if r == nil {
			continue
		}
		for _, k := range r.keys[:r.n] {
			if k >= lo && k < hi {
				out = append(out, pair{v, k})
			}
		}
	}
	sortPairs(out)
	return out
}

// diffPairs reports the first difference between two sorted pair lists.
func diffPairs(got, want []pair) error {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Errorf("missing key %d@%d (%d of %d delivered)", want[i].k, want[i].v, len(got), len(want))
		case i >= len(want):
			return fmt.Errorf("unexpected key %d@%d (%d delivered, %d expected)", got[i].k, got[i].v, len(got), len(want))
		case got[i] != want[i]:
			return fmt.Errorf("got key %d@%d where key %d@%d was expected", got[i].k, got[i].v, want[i].k, want[i].v)
		}
	}
	return nil
}
