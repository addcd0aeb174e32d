package main

import (
	"sort"
	"strings"
)

// Layers a profile sample can be attributed to. Each becomes the per-layer
// metric <layer>_cpu_pct (or <layer>.cpu_pct for one-word layers).
const (
	layerDispatch  = "sim.dispatch"
	layerSwitch    = "sim.switch"
	layerPsres     = "psres"
	layerDevice    = "device"
	layerDFS       = "dfs"
	layerShuffle   = "engine.shuffle"
	layerSched     = "engine.sched"
	layerTrace     = "engine.trace"
	layerExec      = "engine.exec"
	layerCore      = "core"
	layerTelemetry = "telemetry"
	layerInvariant = "invariant"
	layerHarness   = "harness"
	layerGC        = "gc"
	layerOther     = "other"
)

// cpuLayers lists every layer in report order.
var cpuLayers = []string{
	layerDispatch, layerSwitch, layerPsres, layerDevice, layerDFS,
	layerShuffle, layerSched, layerTrace, layerExec, layerCore,
	layerTelemetry, layerInvariant, layerHarness, layerGC, layerOther,
}

// cpuMetric names a layer's CPU-share metric.
func cpuMetric(layer string) string {
	if strings.Contains(layer, ".") {
		return layer + "_cpu_pct"
	}
	return layer + ".cpu_pct"
}

// layerTable maps function-name prefixes to layers. The longest matching
// prefix wins, so a receiver or file-level entry overrides its package's.
// Every function of the module must match some prefix; the benchmark's
// tests check that for every package and every sampled function.
var layerTable = []struct{ prefix, layer string }{
	{"sae/internal/sim.", layerDispatch},
	{"sae/internal/psres.", layerPsres},
	{"sae/internal/device.", layerDevice},
	{"sae/internal/cluster.", layerDevice},
	{"sae/internal/dfs.", layerDFS},

	{"sae/internal/engine.", layerExec},
	{"sae/internal/engine/job.", layerExec},
	{"sae/internal/chaos.", layerExec},
	{"sae/internal/engine.(*shuffleRegistry).", layerShuffle},
	{"sae/internal/engine.newShuffleRegistry", layerShuffle},
	{"sae/internal/engine.(*taskScheduler).", layerSched},
	{"sae/internal/engine.newTaskScheduler", layerSched},
	{"sae/internal/engine.(*taskSet).", layerSched},
	{"sae/internal/engine.newTaskSet", layerSched},
	{"sae/internal/engine.(*execManager).", layerSched},
	{"sae/internal/engine.newExecManager", layerSched},
	{"sae/internal/engine.(*Engine).snapshotJob", layerSched},
	{"sae/internal/engine.(*Engine).trace", layerTrace},
	{"sae/internal/engine.(*traceSink).", layerTrace},
	{"sae/internal/engine.newTraceSink", layerTrace},
	{"sae/internal/engine.(*spanTracker).", layerTrace},
	{"sae/internal/engine.newSpanTracker", layerTrace},
	{"sae/internal/engine.newTraceHeader", layerTrace},
	{"sae/internal/engine.encodeV2", layerTrace},
	{"sae/internal/engine.ReadTrace", layerTrace},
	{"sae/internal/engine.(*engineTelemetry).", layerTelemetry},
	{"sae/internal/engine.newEngineTelemetry", layerTelemetry},

	{"sae/internal/core.", layerCore},
	{"sae/internal/autoscale.", layerCore},
	{"sae/internal/telemetry.", layerTelemetry},
	{"sae/internal/invariant.", layerInvariant},

	// The experiment harness, specs and workload models, and perfbench
	// itself, including its counting auditor: package main in the built
	// binary, sae/perfbench under go test.
	{"sae.", layerHarness},
	{"sae/internal/exp.", layerHarness},
	{"sae/internal/scenario.", layerHarness},
	{"sae/internal/workloads.", layerHarness},
	{"sae/internal/arrival.", layerHarness},
	{"sae/internal/conf.", layerHarness},
	{"sae/internal/metrics.", layerHarness},
	{"sae/internal/rdd.", layerHarness},
	{"sae/internal/bench.", layerHarness},
	{"sae/internal/hunt.", layerHarness},
	{"sae/internal/prof.", layerHarness},
	{"main.", layerHarness},
	{"sae/perfbench.", layerHarness},
}

// tableLayer returns the layer of the longest prefix matching fn.
func tableLayer(fn string) (string, bool) {
	best, layer := -1, ""
	for _, e := range layerTable {
		if len(e.prefix) > best && strings.HasPrefix(fn, e.prefix) {
			best, layer = len(e.prefix), e.layer
		}
	}
	return layer, best >= 0
}

// ownFunction reports whether fn belongs to this module (and so must be
// covered by layerTable) rather than the runtime or standard library.
func ownFunction(fn string) bool {
	return strings.HasPrefix(fn, "sae.") || strings.HasPrefix(fn, "sae/") || strings.HasPrefix(fn, "main.")
}

// gcFrame reports runtime frames that do garbage-collector work: background
// mark workers, mark assists charged to allocating goroutines, sweeping and
// scavenging.
func gcFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.forcegchelper",
		"runtime._GC", "runtime.markroot", "runtime.scanobject", "runtime.GC":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// switchFrame reports runtime frames of a goroutine handoff: channel send
// and receive, parking and readying, and the scheduler finding, stopping
// and waking threads.
func switchFrame(fn string) bool {
	switch fn {
	case "runtime.chansend", "runtime.chansend1", "runtime.chanrecv", "runtime.chanrecv1",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m", "runtime.mcall",
		"runtime.schedule", "runtime.findRunnable", "runtime.execute", "runtime.gogo",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.notesleep",
		"runtime.notewakeup", "runtime.futexsleep", "runtime.futexwakeup", "runtime.futex",
		"runtime.goexit0", "runtime.newproc", "runtime.newproc1", "runtime.resetspinning",
		"runtime.runqgrab", "runtime.runqsteal", "runtime.stealWork":
		return true
	}
	return false
}

// classify attributes one sample (frames leaf first) to exactly one layer.
// GC work wins wherever it sits on the stack. Otherwise the innermost
// function of this module decides, with runtime frames below it charged to
// it — an allocation inside dfs is dfs's cost. The one exception is the
// process baton: a goroutine handoff (channel operation or scheduler frame)
// directly under the event kernel is sim.switch, as are scheduler-only
// stacks, since in a serial simulation process handoffs are what park and
// wake goroutines. Anything else is other.
func classify(frames []string) string {
	for _, f := range frames {
		if gcFrame(f) {
			return layerGC
		}
	}
	for i, f := range frames {
		layer, ok := tableLayer(f)
		if !ok {
			continue
		}
		if layer == layerDispatch && anySwitch(frames[:i]) {
			return layerSwitch
		}
		return layer
	}
	if anySwitch(frames) {
		return layerSwitch
	}
	return layerOther
}

func anySwitch(frames []string) bool {
	for _, f := range frames {
		if switchFrame(f) {
			return true
		}
	}
	return false
}

// attribution is a profile's value split by layer.
type attribution struct {
	total   int64
	byLayer map[string]int64
	// unmapped lists functions of this module no table prefix covers.
	unmapped []string
}

// attribute splits samples' values[idx] by layer.
func attribute(samples []stackSample, idx int) attribution {
	a := attribution{byLayer: map[string]int64{}}
	seen := map[string]bool{}
	for _, s := range samples {
		if idx >= len(s.values) {
			continue
		}
		v := s.values[idx]
		a.total += v
		a.byLayer[classify(s.frames)] += v
		for _, f := range s.frames {
			if ownFunction(f) && !seen[f] {
				seen[f] = true
				if _, ok := tableLayer(f); !ok {
					a.unmapped = append(a.unmapped, f)
				}
			}
		}
	}
	sort.Strings(a.unmapped)
	return a
}

// pct returns layer's share of the total in percent.
func (a attribution) pct(layer string) float64 {
	if a.total == 0 {
		return 0
	}
	return 100 * float64(a.byLayer[layer]) / float64(a.total)
}
