package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the set-up probes, which re-execute the running binary,
// work under `go test` too.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smoke runs perfbench on one workload at tiny size and decodes its
// result line.
func smoke(t *testing.T, workload string, trace string) (result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"-smoke", "-root", ".."}, &out, &errb)
	if code != 0 {
		t.Fatalf("%s --trace %s: exit %d: %s%s", workload, trace, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Fatalf("%s --trace %s: %+v\n%s", workload, trace, res, out.String())
	}
	return res, out.String()
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(res result) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload untraced and traced at tiny size, so
// perfbench cannot rot between the changes that run it at full size. Each run
// must pass its own checks (report agreement, exact counters, every sampled
// function of the module mapped to a layer) and print exactly the metrics
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			res, _ := smoke(t, w.name, "0")
			if got := metricNames(res); strings.Join(got, ",") != strings.Join(endToEnd, ",") {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, endToEnd)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			res, _ = smoke(t, w.name, "1")
			if got := metricNames(res); strings.Join(got, ",") != strings.Join(perLayer, ",") {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, perLayer)
			}
			var sum float64
			for _, l := range cpuLayers {
				sum += res.Metrics[cpuMetric(l)].Value
			}
			if math.Abs(sum-100) > 1e-6 {
				t.Errorf("layer CPU shares sum to %v%%, want 100%% (other.cpu_pct included)", sum)
			}
			if res.Metrics["sim.events"].Value <= 0 || res.Metrics["engine.tasks"].Value <= 0 {
				t.Errorf("exact counters not collected: %v", res.Metrics)
			}
		})
	}
}

// TestLayerTableCoversEveryPackage checks that every package of the module
// maps to a layer, so a new package cannot fall into other.cpu_pct
// unnoticed, and that no prefix is listed twice.
func TestLayerTableCoversEveryPackage(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range layerTable {
		if seen[e.prefix] {
			t.Errorf("prefix %q listed twice", e.prefix)
		}
		seen[e.prefix] = true
	}
	root := ".."
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "perfbench" ||
			name == "cmd" || name == "examples") {
			return filepath.SkipDir
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		var lib bool
		for _, f := range files {
			lib = lib || !strings.HasSuffix(f, "_test.go")
		}
		if !lib {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		pkg := "sae"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		if _, ok := tableLayer(pkg + ".F"); !ok {
			t.Errorf("package %s maps to no layer", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "runtime.growslice", "sae/internal/dfs.(*Block).ReplicasByDistance",
			"sae/internal/engine.(*taskContext).pickBlockSrc"}, layerDFS},
		{[]string{"runtime.futex", "runtime.chanrecv1", "sae/internal/sim.(*Kernel).dispatch",
			"sae/internal/sim.(*Proc).park", "sae/internal/engine.(*Executor).main"}, layerSwitch},
		{[]string{"sae/internal/sim.(*eventQueue).down", "sae/internal/sim.(*Kernel).dispatch"}, layerDispatch},
		{[]string{"runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m",
			"runtime.mcall"}, layerSwitch},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "sae/internal/dfs.New"}, layerGC},
		{[]string{"sae/internal/engine.(*shuffleRegistry).reducePlan.func1", "sort.Slice"}, layerShuffle},
		{[]string{"sae/internal/engine.(*Engine).trace", "sae/internal/engine.(*taskScheduler).launch"}, layerTrace},
		{[]string{"sae/internal/engine.(*taskScheduler).assign", "sae/internal/engine.(*Engine).Wait.func2"}, layerSched},
		{[]string{"main.(*countingAudit).Event", "sae/internal/engine.(*Engine).trace"}, layerHarness},
		{[]string{"runtime._System"}, layerOther},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestSummarizeMatchesPython pins the quartiles to
// statistics.quantiles(xs, n=4).
func TestSummarizeMatchesPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		// statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.q1 != c.q1 || s.median != c.m || s.q3 != c.q3 || s.n != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.xs, s, c.q1, c.m, c.q3)
		}
	}
}

// TestRejectsBadFlags checks perfbench exits non-zero without a result
// line on bad input.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig9", "--seconds", "0"},
		{"--workload", "fig9", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
