package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"path/filepath"
	"strings"
	"time"

	"sae"
	"sae/internal/chaos"
	"sae/internal/cluster"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/exp"
	"sae/internal/invariant"
	"sae/internal/scenario"
	"sae/internal/telemetry"
	"sae/internal/workloads"
)

// config fixes a workload's generated inputs.
type config struct {
	seed int64
	// smoke shrinks every workload to a size that runs in well under a
	// second, for the benchmark's own tests.
	smoke bool
	// root is the checkout root, where scenarios/ lives.
	root string
}

// outcome is what one run of a workload produced.
type outcome struct {
	// report is the rendered report; its digest is the correctness oracle.
	report string
	// simSeconds is the virtual time of the runs the report covers.
	simSeconds float64
	// violations counts invariant-oracle findings (observed16 only).
	violations int
}

// workload is one benchmark workload. prepare does the set-up — spec load
// and compile, engine assembly where perfbench builds the engine — and
// returns the step that runs simulated time. tr is nil on untraced runs,
// which attach no observer and no hook of the benchmark's own.
type workload struct {
	name    string
	prepare func(c config, tr *tracer) (func() (outcome, error), error)
}

var workloadList = []workload{
	{"fig9", prepareFig9},
	{"grayfail256", prepareGrayfail},
	{"multitenant", prepareMultitenant},
	{"observed16", prepareObserved},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// clusterConfig mirrors exp.Setup's cluster: DAS-5 nodes, the setup's disk
// and the seeded per-node variability.
func clusterConfig(s exp.Setup) cluster.Config {
	cfg := cluster.DAS5(s.Nodes)
	cfg.Disk = s.Disk
	cfg.Variability = device.DefaultVariability(s.Seed)
	return cfg
}

// ---------------------------------------------------------------- fig9

func prepareFig9(c config, tr *tracer) (func() (outcome, error), error) {
	end := tr.begin("scenario.load")
	s := sae.DAS5()
	s.Seed = c.seed
	if c.smoke {
		s = s.WithScale(0.01)
	}
	end()
	if tr != nil {
		return func() (outcome, error) { return fig9Decomposed(s, tr) }, nil
	}
	return func() (outcome, error) {
		res, err := sae.RunExperiment("fig9", s)
		if err != nil {
			return outcome{}, err
		}
		return fig9Outcome(res.(*exp.Figure9Result)), nil
	}, nil
}

func fig9Outcome(res *exp.Figure9Result) outcome {
	o := outcome{report: res.String()}
	for _, row := range res.Rows {
		o.simSeconds += row.Seconds
	}
	return o
}

// fig9Decomposed runs fig9's engine runs one by one through exp.Setup.Run,
// the call exp.Figure9 itself makes, in the same order: per cluster size
// the static sweep, its per-stage BestFit and the dynamic run. Only this
// way does the traced run reach each engine's kernel counter. The rendered
// result must digest like RunExperiment's, which proves the decomposition
// runs the same simulation.
func fig9Decomposed(s exp.Setup, tr *tracer) (outcome, error) {
	s.Audit = tr.audit(nil)
	res := &exp.Figure9Result{}
	for _, nodes := range []int{s.Nodes, 16} {
		sn := s.WithNodes(nodes)
		cfg := workloads.Config{Nodes: nodes, Scale: sn.Scale}
		run := func(pol job.Policy) (*engine.JobReport, error) {
			return tr.runSetup(sn, workloads.Terasort(cfg), pol)
		}
		sweep := make([]*engine.JobReport, len(exp.SweepThreads))
		for i, th := range exp.SweepThreads {
			var err error
			if sweep[i], err = run(core.Static{IOThreads: th}); err != nil {
				return outcome{}, err
			}
		}
		best := map[int]int{}
		for si, st := range workloads.Terasort(cfg).Job.Stages {
			if !st.IOMarked() {
				continue
			}
			th, sec := exp.SweepThreads[0], sweep[0].Stages[si].Duration().Seconds()
			for i, t := range exp.SweepThreads {
				if d := sweep[i].Stages[si].Duration().Seconds(); d < sec {
					th, sec = t, d
				}
			}
			best[si] = th
		}
		bestfit, err := run(core.BestFit{Threads: best})
		if err != nil {
			return outcome{}, err
		}
		dynamic, err := run(core.DefaultDynamic())
		if err != nil {
			return outcome{}, err
		}
		for _, r := range []struct {
			policy string
			rep    *engine.JobReport
		}{{"default", sweep[0]}, {"static-bestfit", bestfit}, {"dynamic", dynamic}} {
			row := exp.Fig9Row{Nodes: nodes, Policy: r.policy, Seconds: r.rep.Runtime.Seconds()}
			for _, st := range r.rep.Stages {
				row.Stages = append(row.Stages, exp.StageStat{ThreadsLabel: st.ThreadsLabel()})
			}
			res.Rows = append(res.Rows, row)
		}
	}
	end := tr.begin("engine.report")
	o := fig9Outcome(res)
	end()
	tr.noExport()
	return o, nil
}

// ---------------------------------------------------------------- grayfail256

// grayfailRun builds one run of the 256-node gray-failure scan, the shape
// of internal/bench's sharded matrix: slow nodes every 32, two heartbeat
// partitions, 2% transient task faults and replication across all nodes.
// The seed drives the fault draws. Node variability keeps the shape's
// fixed seed: whether one of the eight slowed nodes also draws a straggler
// roughly doubles the virtual runtime, so a seeded variability would make
// the workload's size depend on the seed.
func grayfailRun(c config, pol job.Policy) (engine.Options, *job.JobSpec) {
	nodes := 256
	if c.smoke {
		nodes = 32
	}
	cfg := cluster.DAS5(nodes)
	cfg.Variability = device.DefaultVariability(7)
	cfg.ControlLatency = 10 * time.Millisecond
	plan := &chaos.Plan{Name: "grayfail256", Seed: c.seed, TaskFaultRate: 0.02}
	for ex := 1; ex < nodes; ex += 32 {
		plan.Slows = append(plan.Slows, chaos.Slow{Exec: ex, At: 5 * time.Second, Factor: 3})
	}
	plan.Partitions = []chaos.Partition{
		{Exec: 2, At: 8 * time.Second, Duration: 40 * time.Second},
		{Exec: nodes - 3, At: 12 * time.Second, Duration: 40 * time.Second},
	}
	opts := engine.Options{
		Cluster:   cfg,
		BlockSize: 64 * device.MiB,
		Policy:    pol,
		Faults:    plan,
		Inputs:    []engine.Input{{Name: "in", Size: int64(nodes) * 24 * 64 * device.MiB}},
	}
	spec := &job.JobSpec{
		Name:   "grayfail256",
		Stages: []*job.StageSpec{{ID: 0, Name: "scan", InputFile: "in", CPUSecondsPerTask: 0.35}},
	}
	return opts, spec
}

// grayfailPolicies are the paper's three sizing policies the scan repeats
// under.
func grayfailPolicies() []job.Policy {
	return []job.Policy{core.Default{}, core.Static{IOThreads: 8}, core.DefaultDynamic()}
}

func prepareGrayfail(c config, tr *tracer) (func() (outcome, error), error) {
	pols := grayfailPolicies()
	// Set-up is the first engine's assembly; the other two are assembled
	// inside the measured run, as a sweep over policies would.
	first, err := newRun(c, tr, pols[0])
	if err != nil {
		return nil, err
	}
	return func() (outcome, error) {
		var o outcome
		for i, pol := range pols {
			r := first
			if i > 0 {
				if r, err = newRun(c, tr, pol); err != nil {
					return outcome{}, err
				}
			}
			if err := wait(r.e, tr); err != nil {
				return outcome{}, err
			}
			rep, err := r.h.Report()
			if err != nil {
				return outcome{}, err
			}
			o.report += rep.String()
			o.simSeconds += rep.Runtime.Seconds()
		}
		tr.noExport()
		return o, nil
	}, nil
}

// engineRun is an assembled engine with its one job submitted.
type engineRun struct {
	e *engine.Engine
	h *engine.JobHandle
}

func newRun(c config, tr *tracer, pol job.Policy) (engineRun, error) {
	end := tr.begin("scenario.load")
	opts, spec := grayfailRun(c, pol)
	end()
	opts.Audit = tr.audit(nil)
	return assemble(opts, spec, tr)
}

func assemble(opts engine.Options, spec *job.JobSpec, tr *tracer) (engineRun, error) {
	end := tr.begin("engine.assemble")
	e, err := engine.NewEngine(opts)
	end()
	if err != nil {
		return engineRun{}, err
	}
	end = tr.begin("engine.submit")
	h, err := e.Submit(spec)
	end()
	return engineRun{e, h}, err
}

// wait runs the engine's simulation to completion.
func wait(e *engine.Engine, tr *tracer) error {
	end := tr.begin("engine.run")
	err := e.Wait()
	end()
	if err == nil {
		tr.engineDone(e)
	}
	return err
}

// ---------------------------------------------------------------- multitenant

func prepareMultitenant(c config, tr *tracer) (func() (outcome, error), error) {
	end := tr.begin("scenario.load")
	sp, err := scenario.Load(filepath.Join(c.root, "scenarios", "multitenant.yaml"))
	if err != nil {
		end()
		return nil, err
	}
	s := sp.BaseSetup()
	s.Seed = c.seed
	if c.smoke {
		s = s.WithScale(0.01)
	}
	compiled, err := sp.Compile(s)
	end()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		return func() (outcome, error) { return multitenantDecomposed(compiled, tr) }, nil
	}
	return func() (outcome, error) {
		res, err := compiled.Run()
		if err != nil {
			return outcome{}, err
		}
		return multitenantOutcome(res.(*exp.MultiTenantResult)), nil
	}, nil
}

func multitenantOutcome(res *exp.MultiTenantResult) outcome {
	o := outcome{report: res.String()}
	for _, row := range res.Rows {
		o.simSeconds += row.MakespanSec
	}
	return o
}

// multitenantDecomposed runs the compiled tenant matrix cell by cell
// through engine.NewEngine/Submit/Wait, in the order exp.Runner.TenantMatrix
// runs it and with the options exp.Setup.RunMulti builds, so the traced run
// reaches each engine. The rendered result must digest like the scenario
// runner's.
func multitenantDecomposed(c *scenario.Compiled, tr *tracer) (outcome, error) {
	s, sp := c.Setup, c.Spec
	cfg := workloads.Config{Nodes: s.Nodes, Scale: s.Scale}
	var cells []exp.TenantCell
	for _, mix := range sp.Mixes {
		for _, schedName := range sp.Schedulers {
			sched, err := exp.SchedulerByName(schedName)
			if err != nil {
				return outcome{}, err
			}
			for _, polName := range sp.Policies {
				pol, err := exp.PolicyByName(polName)
				if err != nil {
					return outcome{}, err
				}
				ws := make([]*workloads.Spec, len(mix.Workloads))
				for j, name := range mix.Workloads {
					if ws[j], err = workloads.ByName(name, cfg); err != nil {
						return outcome{}, err
					}
				}
				reps, err := runTenants(s, ws, pol, sched, tr)
				if err != nil {
					return outcome{}, fmt.Errorf("multitenant %s/%s/%s: %w", mix.Name, sched.Name(), pol.Name(), err)
				}
				cells = append(cells, exp.TenantCell{Mix: mix.Name, Sched: sched.Name(), Policy: pol.Name(), Reports: reps})
			}
		}
	}
	end := tr.begin("engine.report")
	o := multitenantOutcome(exp.NewMultiTenantResult(cells))
	end()
	tr.noExport()
	return o, nil
}

func runTenants(s exp.Setup, ws []*workloads.Spec, pol job.Policy, sched engine.InterJobPolicy, tr *tracer) ([]*engine.JobReport, error) {
	var inputs []engine.Input
	seen := map[string]bool{}
	for _, w := range ws {
		for _, in := range w.Inputs {
			if !seen[in.Name] {
				seen[in.Name] = true
				inputs = append(inputs, in)
			}
		}
	}
	opts := engine.Options{
		Cluster:   clusterConfig(s),
		BlockSize: ws[0].BlockSize,
		Policy:    pol,
		JobPolicy: sched,
		Inputs:    inputs,
		Audit:     tr.audit(nil),
	}
	end := tr.begin("engine.assemble")
	e, err := engine.NewEngine(opts)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("engine.submit")
	handles := make([]*engine.JobHandle, len(ws))
	for i, w := range ws {
		if handles[i], err = e.Submit(w.Job); err != nil {
			end()
			return nil, err
		}
	}
	end()
	if err := wait(e, tr); err != nil {
		return nil, err
	}
	reps := make([]*engine.JobReport, len(handles))
	for i, h := range handles {
		if reps[i], err = h.Report(); err != nil {
			return nil, err
		}
	}
	return reps, nil
}

// ---------------------------------------------------------------- observed16

func prepareObserved(c config, tr *tracer) (func() (outcome, error), error) {
	end := tr.begin("scenario.load")
	wcfg := workloads.Config{Nodes: 16, Scale: 4}
	if c.smoke {
		wcfg.Scale = 0.05
	}
	w := workloads.Terasort(wcfg)
	ccfg := cluster.DAS5(16)
	ccfg.Variability = device.DefaultVariability(c.seed)
	aud, reg, trace := invariant.New(), telemetry.NewRegistry(), newDigestWriter()
	opts := engine.Options{
		Cluster:     ccfg,
		BlockSize:   w.BlockSize,
		Policy:      core.DefaultDynamic(),
		Inputs:      w.Inputs,
		Trace:       trace,
		TraceFormat: 2,
		Metrics:     reg,
		Audit:       tr.audit(aud),
	}
	end()
	r, err := assemble(opts, w.Job, tr)
	if err != nil {
		return nil, err
	}
	return func() (outcome, error) {
		if err := wait(r.e, tr); err != nil {
			return outcome{}, err
		}
		rep, err := r.h.Report()
		if err != nil {
			return outcome{}, err
		}
		end := tr.begin("telemetry.export")
		prom, jsonl := newDigestWriter(), newDigestWriter()
		err = reg.WritePrometheus(prom)
		if err == nil {
			err = reg.WriteJSONL(jsonl)
		}
		end()
		if err != nil {
			return outcome{}, err
		}
		tr.traceBytes(trace.n)
		end = tr.begin("engine.report")
		report := rep.String() + fmt.Sprintf("trace %s\nprometheus %s\njsonl %s\n",
			trace.sum(), prom.sum(), jsonl.sum())
		end()
		return outcome{report: report, simSeconds: rep.Runtime.Seconds(), violations: len(aud.Violations())}, nil
	}, nil
}

// digestWriter is an io.Discard-style sink that keeps only the SHA-256 and
// the length of what it was given.
type digestWriter struct {
	h hash.Hash
	n int64
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (d *digestWriter) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }
