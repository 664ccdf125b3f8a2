// Command perfbench is the repository's end-to-end benchmark. It drives the
// whole watch pipeline in one process — MVCC Store.Commit → CDC →
// Hub.AppendBatch → watcher ring and dispatch → (v4 TCP server → client) →
// consumer callback — under a seeded workload, checks every delivery against
// a correctness oracle, and prints the named metrics. The last line of its
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// layers are wrapped in timing shims and the run reports per-layer metrics,
// the CPU share of each layer (from a CPU profile reduced with `go tool
// pprof`), and its own end-to-end metrics under a "traced." prefix; their
// difference from an untraced run is the tracing overhead.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload local-commit --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// procStart approximates process start: package initialisation runs before
// anything the benchmark times.
var procStart = time.Now()

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: local-commit, remote-fanout or catchup-storm")
	seed := flag.Uint64("seed", 1, "workload seed")
	secs := flag.Float64("seconds", 20, "length of the timed phases in seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "runs"), "directory for run records, spans and profiles")
	flag.Parse()
	wl, ok := workloads[*name]
	// Five seconds is the shortest run whose phases each hold a whole
	// measurement window.
	if !ok || *secs < 5 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *secs, *traceFlag)
		return 2
	}
	traced := *traceFlag == 1
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", wl.name, *seed, *traceFlag))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fp := hostFingerprint(wl.name, *seed)
	fmt.Printf("host: %s\n", fp)

	// Set up several times and keep the last stack; setup_s is the median.
	var b *bench
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.finish()
			b.st.close()
			runtime.GC()
		}
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		b = newBench(wl, *seed, procStart, traced)
		if err := b.setup(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Printf("setup: %d reps, seconds %v\n", setupReps, setups)

	var prof *os.File
	if traced {
		var err error
		if prof, err = os.Create(filepath.Join(dir, "cpu.pprof")); err == nil {
			err = pprof.StartCPUProfile(prof)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
	}
	ph, runErr := b.run(*secs)
	if traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("cpu profile: %w", err)
		}
	}
	liveFailed, msgs := b.finish()

	attempted := b.commits + b.expPairs + int64(len(b.live)) + ph.cu.attempted
	failed := liveFailed + ph.cu.failed
	if ph.cu.firstFail != "" {
		msgs = append(msgs, ph.cu.firstFail)
	}
	if runErr != nil {
		failed++
		msgs = append(msgs, runErr.Error())
	}
	e2e := b.endToEnd(ph, setups)
	var layer metricSet
	var spans spanSeries
	if traced {
		spans = b.tr.series(b)
		layer = b.layerMetrics(ph, spans, dir)
		for _, x := range e2e {
			layer.add("traced."+x.name, x.value, x.unit)
		}
		if err := b.tr.writeSpans(filepath.Join(dir, "spans.jsonl"), b, 16); err != nil {
			failed++
			msgs = append(msgs, fmt.Sprintf("spans: %v", err))
		}
	}
	all := map[string]metricValue{}
	for _, x := range append(e2e, layer...) {
		all[x.name] = metricValue{Value: x.value, Unit: x.unit}
	}
	// The result carries exactly the metrics BENCHMARK.json lists for this
	// kind of run; the run record keeps every one.
	res := result{Metrics: map[string]metricValue{}}
	names, err := listedMetrics("BENCHMARK.json", traced)
	if err != nil {
		failed++
		msgs = append(msgs, err.Error())
	}
	for _, n := range names {
		v, ok := all[n]
		if !ok {
			failed++
			msgs = append(msgs, fmt.Sprintf("BENCHMARK.json lists metric %s, which this run does not produce", n))
			continue
		}
		res.Metrics[n] = v
	}
	res.Correct, res.Attempted, res.Failed = failed == 0, attempted, failed

	fmt.Printf("workload %s seed %d: %d commits, %d expected deliveries, %d catch-ups (%d resumes)\n",
		wl.name, *seed, b.commits, b.expPairs, len(ph.cu.resumeMs)+len(ph.cu.coldMs), ph.cu.resumes)
	for _, x := range e2e {
		fmt.Printf("  %-28s %14.4f %s%s\n", x.name, x.value, x.unit, x.note)
	}
	if traced {
		fmt.Println(spans.breakdown())
		for _, x := range layer {
			fmt.Printf("  %-36s %14.4f %s\n", x.name, x.value, x.unit)
		}
	}
	b.st.close()
	if ph.cu.overtaken > 0 {
		fmt.Printf("  contract: catch-up streams claimed progress over %d events before delivering them\n", ph.cu.overtaken)
	}
	fmt.Printf("  %-28s %14.6f ratio (%d of %d ops)\n", "failed_frac", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for i, s := range msgs {
		if i == 8 {
			fmt.Printf("  ... %d more failures\n", len(msgs)-i)
			break
		}
		fmt.Printf("  FAIL %s\n", s)
	}

	rec, _ := json.MarshalIndent(struct {
		Host    fingerprint            `json:"host"`
		Setups  []float64              `json:"setup_s_reps"`
		Result  result                 `json:"result"`
		All     map[string]metricValue `json:"all_metrics"`
		Failure []string               `json:"failures,omitempty"`
	}{fp, setups, res, all, msgs}, "", "  ")
	if err := os.WriteFile(filepath.Join(dir, "run.json"), rec, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// listedMetrics returns the metric names the benchmark definition lists for
// untraced (end_to_end) or traced (per_layer) runs.
func listedMetrics(path string, traced bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	list := def.EndToEnd
	if traced {
		list = def.PerLayer
	}
	names := make([]string, len(list))
	for i, x := range list {
		names[i] = x.Name
	}
	return names, nil
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metric struct {
	name, unit string
	value      float64
	note       string
}

// metricSet keeps metrics in the order they were added.
type metricSet []metric

func (m *metricSet) add(name string, v float64, unit string) {
	*m = append(*m, metric{name: name, value: v, unit: unit})
}

func (m *metricSet) addTail(name string, s windowed, scale float64, unit string) {
	note := fmt.Sprintf("  (n=%d, fewest in a window %d)", s.n, s.minN)
	if s.tailPM != 990 {
		note = fmt.Sprintf("  (n=%d, fewest in a window %d: p%.1f, the highest percentile with 10 samples beyond)", s.n, s.minN, float64(s.tailPM)/10)
	}
	*m = append(*m, metric{name: name, value: s.tail * scale, unit: unit, note: note})
}
