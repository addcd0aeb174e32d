package main

import (
	"time"

	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/exp"
	"sae/internal/workloads"
)

// span is one timed call perfbench made into a layer's public function.
type span struct {
	name       string
	start, end time.Time
}

// counts are the traced run's exact work counters. They are a function of
// the code and the seed alone, so they must repeat exactly.
type counts struct {
	Events      uint64 // sim.events
	Tasks       int64  // engine.tasks
	ShuffleRegs int64  // engine.shuffle_registrations
	Decisions   int64  // core.decisions
	TraceEvents int64  // engine.trace_events
	TraceBytes  int64  // engine.trace_bytes
	Violations  int64  // invariant.violations
}

// tracer records one traced run of a workload: the spans around
// perfbench's calls and the exact counters. Every method is nil-safe, so the
// workloads call them unconditionally and an untraced run (nil tracer)
// does nothing extra.
type tracer struct {
	spans []span
	n     counts
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.spans = append(t.spans, span{name, start, time.Now()}) }
}

// spanSeconds sums the duration of the spans with the given name.
func (t *tracer) spanSeconds(name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d.Seconds()
}

// engineDone adds a finished engine's kernel event count.
func (t *tracer) engineDone(e *engine.Engine) {
	if t != nil {
		t.n.Events += e.FiredEvents()
	}
}

// noExport records the telemetry export step of a workload that attaches
// no registry: an empty span, so telemetry.export_s is measured, not
// assumed to be zero, on every workload.
func (t *tracer) noExport() { t.begin("telemetry.export")() }

func (t *tracer) traceBytes(n int64) {
	if t != nil {
		t.n.TraceBytes += n
	}
}

// audit returns the counting auditor to attach to an engine, forwarding
// every hook to inner (the workload's own auditor, or nil). A nil tracer
// returns inner itself.
func (t *tracer) audit(inner engine.Audit) engine.Audit {
	if t == nil {
		return inner
	}
	return &countingAudit{n: &t.n, inner: inner}
}

// runSetup runs one workload through exp.Setup.Run, closing the assembly
// span when the engine's set-up hook fires and the run span on return.
func (t *tracer) runSetup(s exp.Setup, w *workloads.Spec, pol job.Policy) (*engine.JobReport, error) {
	start := time.Now()
	var built time.Time
	var e *engine.Engine
	rep, err := s.Run(w, pol, func(en *engine.Engine) { built, e = time.Now(), en })
	end := time.Now()
	if e != nil {
		t.spans = append(t.spans, span{"engine.assemble", start, built}, span{"engine.run", built, end})
	}
	if err != nil {
		return nil, err
	}
	t.engineDone(e)
	return rep, nil
}

// countingAudit counts the engine's structural transitions and forwards
// them to an inner auditor.
type countingAudit struct {
	n     *counts
	inner engine.Audit
}

func (a *countingAudit) BeginRun(active []bool) {
	if a.inner != nil {
		a.inner.BeginRun(active)
	}
}

func (a *countingAudit) EndRun() {
	if a.inner != nil {
		a.inner.EndRun()
	}
}

func (a *countingAudit) Event(ev engine.TraceEvent) {
	a.n.TraceEvents++
	if a.inner != nil {
		a.inner.Event(ev)
	}
}

func (a *countingAudit) SlotLaunched(exec, jobID int) {
	a.n.Tasks++
	if a.inner != nil {
		a.inner.SlotLaunched(exec, jobID)
	}
}

func (a *countingAudit) SlotReleased(exec, jobID int) {
	if a.inner != nil {
		a.inner.SlotReleased(exec, jobID)
	}
}

func (a *countingAudit) SlotsReclaimed(exec, inflight int) {
	if a.inner != nil {
		a.inner.SlotsReclaimed(exec, inflight)
	}
}

func (a *countingAudit) ExecutorEpoch(exec, epoch int) {
	if a.inner != nil {
		a.inner.ExecutorEpoch(exec, epoch)
	}
}

func (a *countingAudit) ShuffleRegistered(jobID, stage, task, node int, outcome engine.ShuffleOutcome) {
	a.n.ShuffleRegs++
	if a.inner != nil {
		a.inner.ShuffleRegistered(jobID, stage, task, node, outcome)
	}
}

func (a *countingAudit) ShuffleNodeLost(node int) {
	if a.inner != nil {
		a.inner.ShuffleNodeLost(node)
	}
}

func (a *countingAudit) TaskAccepted(jobID int, m job.TaskMetrics) {
	if a.inner != nil {
		a.inner.TaskAccepted(jobID, m)
	}
}

func (a *countingAudit) JobFinished(rep *engine.JobReport) {
	for _, d := range rep.Decisions {
		a.n.Decisions += int64(len(d))
	}
	if a.inner != nil {
		a.inner.JobFinished(rep)
	}
}
