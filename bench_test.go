package sae

// One benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the artifact at full paper scale on the simulated
// cluster; headline quantities are attached as custom metrics so the shape
// comparison with the paper is visible in benchmark output. Run with:
//
//	go test -bench=. -benchmem
//
// Plus micro-benchmarks of the load-bearing substrates.

import (
	"fmt"
	"strings"
	"testing"

	"sae/internal/bench"
	"sae/internal/core"
	"sae/internal/engine/job"
	"sae/internal/exp"
	"sae/internal/metrics"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Table1()
		if r.Total != 117 {
			b.Fatalf("total = %d", r.Total)
		}
		b.ReportMetric(float64(r.Total), "parameters")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Table2(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.App == "terasort" {
				b.ReportMetric(row.DiffPct, "terasort-io-diff-%")
			}
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure1(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Apps[0].Stages[0].CPUPct, "terasort-s0-cpu-%")
		b.ReportMetric(r.Apps[0].Stages[0].IowaitPct, "terasort-s0-iowait-%")
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, _, err := exp.Figure2(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.Reduction(ts.Default, ts.BestFit), "terasort-bestfit-red-%")
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure3(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MaxOverMinRd, "read-maxmin-x")
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		agg, _, err := exp.Figure4(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.Reduction(agg.Default, agg.BestFit), "aggregation-bestfit-red-%")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure5(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Panels[0].UtilPct[0], "terasort-s0-util-at-32-%")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure6(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Threads[0][0]), "exec0-s0-threads")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure7(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Stages[0].Selected), "s0-selected-threads")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure8(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range r.Apps {
			b.ReportMetric(app.DynamicRed, app.App+"-dyn-red-%")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure9(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		var d4, d16 float64
		for _, row := range r.Rows {
			if row.Policy == "default" {
				if row.Nodes == 4 {
					d4 = row.Seconds
				} else {
					d16 = row.Seconds
				}
			}
		}
		b.ReportMetric(d16/d4, "default-16v4-slowdown-x")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hdd, ssd, err := exp.Figure10(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.Reduction(hdd.Default, hdd.BestFit), "hdd-bestfit-red-%")
		b.ReportMetric(exp.Reduction(ssd.Default, ssd.BestFit), "ssd-bestfit-red-%")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure11(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.App.DynamicRed, "ssd-dyn-red-%")
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure12(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Panels {
			if p.Stage == 0 && p.Disk == "HDD" {
				b.ReportMetric(p.Mean[4], "hdd-s0-mean-MBps-at-4")
			}
		}
	}
}

// ---------------------------------------------------------------- substrates
//
// The substrate and engine benchmark bodies live in internal/bench so the
// sae-bench command (which emits the BENCH_*.json perf trajectory and gates
// CI on regressions) runs exactly the same workloads as `go test -bench`.

// BenchmarkSimKernel measures raw event throughput of the DES kernel on the
// same-instant ring fast lane.
func BenchmarkSimKernel(b *testing.B) { bench.KernelRing(b) }

// BenchmarkSimKernelHeap measures the 4-ary heap under pseudo-random
// future-time inserts.
func BenchmarkSimKernelHeap(b *testing.B) { bench.KernelHeap(b) }

// BenchmarkSimTimerChurn measures the heartbeat-deadline pattern: one timer
// rescheduled in place per simulated beat.
func BenchmarkSimTimerChurn(b *testing.B) { bench.KernelTimerChurn(b) }

// BenchmarkSimEvery measures the periodic-event primitive.
func BenchmarkSimEvery(b *testing.B) { bench.KernelEvery(b) }

// BenchmarkSimCancel measures cancel-heavy (speculation-timer) churn with
// lazy cancellation and heap compaction.
func BenchmarkSimCancel(b *testing.B) { bench.KernelCancel(b) }

// BenchmarkProcessSwitch measures process park/resume round trips.
func BenchmarkProcessSwitch(b *testing.B) { bench.ProcessSwitch(b) }

// BenchmarkProcessPingPong measures cross-goroutine baton handoffs between
// two processes.
func BenchmarkProcessPingPong(b *testing.B) { bench.ProcessPingPong(b) }

// BenchmarkProcessorSharing measures the disk model under churn.
func BenchmarkProcessorSharing(b *testing.B) { bench.ProcessorSharing(b) }

// BenchmarkArrivalGen measures open-loop traffic generation: the thinning
// draw plus kernel dispatch of every submission.
func BenchmarkArrivalGen(b *testing.B) { bench.ArrivalGen(b) }

// BenchmarkShardedMatrix measures one serial 256-executor grayfail run.
func BenchmarkShardedMatrix(b *testing.B) { bench.ShardedMatrix1(b) }

// BenchmarkDynamicController measures MAPE-K decision overhead.
func BenchmarkDynamicController(b *testing.B) {
	c := core.DefaultDynamic().NewController(job.ExecutorInfo{MaxThreads: 32})
	c.StageStart(job.StageMeta{ID: 0, NumTasks: 1 << 30, IOMarked: true})
	tm := job.TaskMetrics{Stage: 0, BlockedIO: 1e6, BytesMoved: 1 << 20, End: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Start = tm.End
		tm.End += 1e9
		c.TaskDone(tm)
	}
}

// BenchmarkCongestionIndex measures the analyzer's ζ computation.
func BenchmarkCongestionIndex(b *testing.B) {
	iv := metrics.Interval{Start: 0, End: 1e9, BlockedIO: 5e8, Bytes: 1 << 30, Tasks: 8}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += iv.Congestion()
	}
	_ = sink
}

// BenchmarkEngineTerasort measures a full paper-scale engine run, with
// kernel events/sec and the sim-time-over-wall-time speedup attached.
func BenchmarkEngineTerasort(b *testing.B) { bench.EngineTerasort(b) }

// BenchmarkRDDWordCount measures the dataflow layer end to end.
func BenchmarkRDDWordCount(b *testing.B) {
	lines := make([]string, 5000)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha beta gamma delta %d", i%97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, err := NewContext(ContextOptions{Policy: Default()})
		if err != nil {
			b.Fatal(err)
		}
		text := TextFile(ctx, "bench/in", lines, 16)
		words := FlatMap(text, func(l string) []string { return strings.Fields(l) })
		pairs := MapData(words, func(w string) Pair[string, int] { return Pair[string, int]{Key: w, Value: 1} })
		counts := ReduceByKey(pairs, func(a, b int) int { return a + b }, 8)
		out, _, err := Collect(counts)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFaults regenerates the fault-tolerance matrix: Terasort under
// quiet, crash, crash-restart and flaky chaos schedules for each policy.
func BenchmarkFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment("faults", exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		r := res.(*exp.FaultsResult)
		for _, row := range r.Rows {
			if row.Policy == "dynamic" && strings.Contains(row.Schedule, "+") {
				b.ReportMetric(row.DegradedPct, "dyn-crash-restart-degraded-%")
				b.ReportMetric(float64(row.Requeued), "dyn-crash-restart-requeued")
			}
		}
	}
}

// BenchmarkGrayFail regenerates the gray-failure matrix: Terasort under a
// slow node, a heartbeat-dropping partition and corrupt DFS replicas, for
// each policy. The headline metric is the dynamic policy completing under
// a degraded (slow, not dead) node.
func BenchmarkGrayFail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment("grayfail", exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		r := res.(*exp.GrayFailResult)
		for _, row := range r.Rows {
			if row.Policy != "dynamic" {
				continue
			}
			switch {
			case strings.HasPrefix(row.Schedule, "slow"):
				b.ReportMetric(row.Seconds, "dyn-slow-runtime-s")
				b.ReportMetric(row.DegradedPct, "dyn-slow-degraded-%")
			case strings.HasPrefix(row.Schedule, "partition"):
				b.ReportMetric(float64(row.Suspected), "dyn-partition-suspected")
				b.ReportMetric(float64(row.Fenced), "dyn-partition-fenced")
			case strings.HasPrefix(row.Schedule, "corrupt"):
				b.ReportMetric(float64(row.ChecksumFailovers), "dyn-corrupt-failovers")
			}
		}
	}
}

// BenchmarkMultiTenant regenerates the multi-tenancy matrix: concurrent
// Terasort/PageRank mixes under FIFO and fair sharing, with default and
// dynamic executor sizing.
func BenchmarkMultiTenant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment("multitenant", exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		r := res.(*exp.MultiTenantResult)
		if row, ok := r.Get("terasort+pagerank", "FAIR", "dynamic"); ok {
			b.ReportMetric(row.MakespanSec, "ts+pr-fair-dyn-makespan-s")
			b.ReportMetric(row.MeanJobSec, "ts+pr-fair-dyn-meanjob-s")
		}
		if row, ok := r.Get("terasort+pagerank", "FIFO", "default"); ok {
			b.ReportMetric(row.MakespanSec, "ts+pr-fifo-def-makespan-s")
		}
	}
}

// BenchmarkAblation regenerates the §5.2 design-choice ablation table.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Ablation(exp.Default())
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := r.Get("terasort", "dynamic"); ok {
			b.ReportMetric(row.RedVsDefault, "terasort-dyn-red-%")
		}
		if row, ok := r.Get("terasort", "utilization-driven"); ok {
			b.ReportMetric(row.RedVsDefault, "terasort-util-red-%")
		}
	}
}
