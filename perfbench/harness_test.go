package main

import (
	"math"
	"sort"
	"testing"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct{ n, pm int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900}, {999, 900},
		{1000, 990}, {9999, 990}, {10000, 999}, {1_000_000, 999},
	}
	for _, c := range cases {
		if got := tailPerMille(c.n); got != c.pm {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.pm)
		}
		// Whatever percentile the rule picks, at least ten samples of a
		// distinct-valued set lie strictly beyond it.
		if c.pm > 0 {
			xs := make([]float64, c.n)
			for i := range xs {
				xs[i] = float64(i)
			}
			v := quantile(xs, float64(c.pm)/1000)
			beyond := c.n - sort.SearchFloat64s(xs, math.Nextafter(v, math.Inf(1)))
			if beyond < 10 {
				t.Errorf("n=%d p%d: %d samples beyond, want >= 10", c.n, c.pm, beyond)
			}
		}
	}
	// Metrics named p99 never report a higher percentile than p99.
	if got := reportedTail(50_000); got != 990 {
		t.Errorf("reportedTail(50000) = %d, want 990", got)
	}
	if got := summarize(make([]float64, 500)).tailPM; got != 900 {
		t.Errorf("500 samples report p%d‰, want p900‰", got)
	}
}

func TestLhistQuantileTracksExact(t *testing.T) {
	var h lhist
	xs := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(500 + i*i%3_000_000)
		h.record(v)
		xs = append(xs, float64(v))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), quantile(xs, q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.2f = %.0f, exact %.0f (more than 1%% apart)", q, got, want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 300}}, 70},
		{"outside", []span{{Start: 0, End: 50}, {Start: 250, End: 300}}, 100},
		{"covering", []span{{Start: 0, End: 300}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// fakeClock advances only when the generator sleeps or a commit runs.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

func (c *fakeClock) sleepUntil(t int64) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	s := schedule{rate: 250, period: 10 * time.Millisecond} // 2.5 commits per tick
	var sum int
	for k := 0; k < 100; k++ {
		sum += s.burst(k)
	}
	if sum != 250 {
		t.Fatalf("100 ticks carry %d commits, want 250", sum)
	}

	// Each commit takes 6ms, so bursts of 2-3 commits overrun the 10ms
	// period and the generator falls further behind every tick.
	clk := &fakeClock{t: 1000}
	const service = int64(6 * time.Millisecond)
	var dues, lat []int64
	late, err := runOpenLoop(clk, s, 1000, int64(50*time.Millisecond), nil, func(due int64) error {
		clk.t += service
		dues = append(dues, due)
		lat = append(lat, clk.t-due)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(late) != 5 {
		t.Fatalf("%d ticks in 50ms, want 5", len(late))
	}
	wantSizes := []int{2, 3, 2, 3, 2}
	wantLate := make([]int64, 5)
	clock := int64(1000)
	i := 0
	for k, n := range wantSizes {
		due := 1000 + int64(k)*int64(10*time.Millisecond)
		clock = max(clock, due)
		wantLate[k] = clock - due
		for j := 0; j < n; j++ {
			clock += service
			if dues[i] != due {
				t.Errorf("commit %d due %d, want its burst's due time %d", i, dues[i], due)
			}
			if lat[i] != clock-due {
				t.Errorf("commit %d latency %d, want %d (timed from due, not from send)", i, lat[i], clock-due)
			}
			i++
		}
	}
	if i != len(dues) {
		t.Fatalf("%d commits, want %d", len(dues), i)
	}
	for k := range late {
		if late[k] != wantLate[k] {
			t.Errorf("tick %d late %d, want %d", k, late[k], wantLate[k])
		}
	}
	if late[0] != 0 || late[4] <= late[1] {
		t.Errorf("lateness %v should start at 0 and grow while the generator is behind", late)
	}
}

type plainCB struct{ core.Funcs }

type batchCB struct {
	core.Funcs
	batches int
}

func (b *batchCB) OnEventBatch([]core.ChangeEvent) { b.batches++ }

func TestCallbackShimKeepsBatchInterface(t *testing.T) {
	tr := newTracer(&fakeClock{}, workloads["local-commit"])
	if _, ok := wrapCallback(plainCB{}, tr, -1).(core.EventBatchCallback); ok {
		t.Error("wrapper of a per-event callback claims OnEventBatch")
	}
	inner := &batchCB{}
	w := wrapCallback(inner, tr, -1)
	bw, ok := w.(core.EventBatchCallback)
	if !ok {
		t.Fatal("wrapper of a batch callback lost OnEventBatch")
	}
	bw.OnEventBatch(make([]core.ChangeEvent, 3))
	if inner.batches != 1 {
		t.Errorf("inner OnEventBatch ran %d times, want 1", inner.batches)
	}
	if tr.cbCalls.Load() != 1 || tr.cbEvents.Load() != 3 {
		t.Errorf("shim counted %d calls / %d events, want 1 / 3", tr.cbCalls.Load(), tr.cbEvents.Load())
	}
}

// countingIngester records which entry point the shim used.
type countingIngester struct{ appends, batches, progress int }

func (c *countingIngester) Append(core.ChangeEvent) error            { c.appends++; return nil }
func (c *countingIngester) AppendBatch(evs []core.ChangeEvent) error { c.batches++; return nil }
func (c *countingIngester) Progress(core.ProgressEvent) error        { c.progress++; return nil }

func TestIngestShimForwardsBatchesNatively(t *testing.T) {
	wl := workloads["local-commit"]
	tr := newTracer(&fakeClock{}, wl)
	inner := &countingIngester{}
	var ing core.Ingester = &ingestShim{inner: inner, t: tr}
	evs := make([]core.ChangeEvent, 4)
	for i := range evs {
		v := make([]byte, wl.valueSize)
		encodeValue(v, 7, int32(i))
		evs[i] = core.ChangeEvent{Key: keyspace.NumericKey(i), Mut: core.Mutation{Op: core.OpPut, Value: v}, Version: 7}
	}
	if err := ing.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := ing.Progress(core.ProgressEvent{Range: keyspace.Full(), Version: 7}); err != nil {
		t.Fatal(err)
	}
	if inner.batches != 1 || inner.appends != 0 || inner.progress != 1 {
		t.Errorf("inner saw %d AppendBatch, %d Append, %d Progress; want 1, 0, 1", inner.batches, inner.appends, inner.progress)
	}
	if tr.rows.get(7) == nil {
		t.Error("shim recorded no span row for version 7")
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := make([]byte, 64)
	encodeValue(v, 123456789, 4242)
	seq, k, ok := decodeValue(v, 64)
	if !ok || seq != 123456789 || k != 4242 {
		t.Fatalf("decode = %d, %d, %v", seq, k, ok)
	}
	if _, _, ok := decodeValue(v[:63], 64); ok {
		t.Error("short value decoded")
	}
}
