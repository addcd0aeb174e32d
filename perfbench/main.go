// Command perfbench runs the repository's benchmark. It runs one
// workload of the simulator for a fixed host-time budget, checks every
// run's report against the committed digest, and prints the end-to-end
// metrics (--trace 0) or the per-layer split (--trace 1), ending with one
// JSON line:
//
//	bash perfbench/run.sh --workload fig9 --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer attribution.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the committed digests were taken at. Other seeds
// are checked by run-to-run agreement instead.
const defaultSeed = 1

// setupProbes is how many fresh processes measure set-up time per run.
const setupProbes = 11

// digestsJSON holds the SHA-256 of each workload's rendered report at the
// default seed and full size.
//
//go:embed digests.json
var digestsJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (fig9, grayfail256, multitenant, observed16)")
	seed := fs.Int64("seed", defaultSeed, "workload seed: node variability and fault draws")
	seconds := fs.Int("seconds", 25, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 the per-layer split from a traced run")
	smoke := fs.Bool("smoke", false, "run the workload at a tiny size (for perfbench's own tests)")
	root := fs.String("root", ".", "root of the checkout (holds scenarios/)")
	probe := fs.Bool("probe", false, "internal: do the workload's set-up, report readiness and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	c := config{seed: *seed, smoke: *smoke, root: *root}
	if *probe {
		if _, err := w.prepare(c, nil); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}

	b := &bench{w: w, c: c, budget: time.Duration(*seconds) * time.Second, out: stdout}
	if err := b.loadDigest(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d smoke=%v: nproc=%d GOMAXPROCS=%d %s\n",
		w.name, c.seed, c.smoke, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var res result
	if *trace == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.perLayer()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is perfbench's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench measures one workload.
type bench struct {
	w      workload
	c      config
	budget time.Duration
	out    io.Writer
	// want is the report digest every run must produce: the committed one
	// at the default seed, otherwise the first run's.
	want string

	attempted, failed int
	// problems are the failed checks, printed before the result.
	problems []string
}

func (b *bench) loadDigest() error {
	if b.c.seed != defaultSeed || b.c.smoke {
		return nil
	}
	var digests map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	b.want = digests[b.w.name]
	if b.want == "" {
		return fmt.Errorf("digests.json has no digest for %s", b.w.name)
	}
	return nil
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// rep is one measured run of the workload.
type rep struct {
	wall, cpu, allocMB, rssMB, simSeconds float64
	gcCycles                              float64
	tr                                    *tracer
}

// measure runs the workload once — set-up and simulation — and checks its
// report. tr is nil for an untraced run.
func (b *bench) measure(tr *tracer) (rep, bool) {
	debug.FreeOSMemory()
	resetPeakRSS()
	m0 := readMetrics()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	o, err := b.once(tr)
	r := rep{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0, tr: tr}
	m1 := readMetrics()
	r.allocMB = (m1.allocBytes - m0.allocBytes) / (1 << 20)
	r.gcCycles = m1.gcCycles - m0.gcCycles
	r.rssMB = peakRSSMB()
	r.simSeconds = o.simSeconds
	if tr != nil {
		tr.n.Violations = int64(o.violations)
	}
	b.attempted++
	ok := b.check(o, err)
	if !ok {
		b.failed++
	}
	fmt.Fprintf(b.out, "run %d traced=%v ok=%v: wall %.4fs cpu %.4fs alloc %.1fMB rss %.1fMB\n",
		b.attempted, tr != nil, ok, r.wall, r.cpu, r.allocMB, r.rssMB)
	return r, ok
}

func (b *bench) once(tr *tracer) (outcome, error) {
	runSim, err := b.w.prepare(b.c, tr)
	if err != nil {
		return outcome{}, err
	}
	return runSim()
}

// check applies the correctness oracle to one run: no error, no invariant
// violation, and the expected report digest.
func (b *bench) check(o outcome, err error) bool {
	if err != nil {
		b.problem("run %d: %v", b.attempted, err)
		return false
	}
	if o.violations > 0 {
		b.problem("run %d: %d invariant violation(s)", b.attempted, o.violations)
		return false
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(o.report)))
	if b.want == "" {
		b.want = got
		fmt.Fprintf(b.out, "report digest %s (reference: first run)\n", got)
	}
	if got != b.want {
		b.problem("run %d: report digest %s, want %s", b.attempted, got, b.want)
		return false
	}
	return true
}

// loop measures atLeast runs, and more while the next run, taking as
// long as the last one, would end before the deadline.
func (b *bench) loop(until time.Time, atLeast int, traced bool) []rep {
	var reps []rep
	var last time.Duration
	for len(reps) < atLeast || time.Now().Add(last).Before(until) {
		t0 := time.Now()
		var tr *tracer
		if traced {
			tr = &tracer{}
		}
		r, ok := b.measure(tr)
		last = time.Since(t0)
		if ok {
			reps = append(reps, r)
		} else if b.failed >= 3 {
			break // the workload is broken: stop burning the budget
		}
	}
	return reps
}

// endToEnd measures untraced runs for the whole budget, after the set-up
// probes.
func (b *bench) endToEnd() (result, error) {
	setup, err := b.probeSetup()
	if err != nil {
		return result{}, err
	}
	reps := b.loop(time.Now().Add(b.budget), 2, false)
	col := func(f func(rep) float64) summary {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return summarize(xs)
	}
	rows := []row{
		{"wall_s", "s", col(func(r rep) float64 { return r.wall })},
		{"cpu_s", "s", col(func(r rep) float64 { return r.cpu })},
		{"sim_s_per_wall_s", "s/s", col(func(r rep) float64 { return per(r.simSeconds, r.wall) })},
		{"alloc_mb", "MB", col(func(r rep) float64 { return r.allocMB })},
		{"peak_rss_mb", "MB", col(func(r rep) float64 { return r.rssMB })},
		{"setup_s", "s", summarize(setup)},
	}
	return b.finish(rows, len(reps) >= 2), nil
}

// row is one reported metric.
type row struct {
	name, unit string
	s          summary
}

// finish prints the metric table and builds the result line.
func (b *bench) finish(rows []row, enough bool) result {
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(b.out, "%-32s %14s %-5s %14s %14s %4s\n", "metric", "median", "unit", "q1", "q3", "n")
	for _, r := range rows {
		fmt.Fprintf(b.out, "%-32s %14.6g %-5s %14.6g %14.6g %4d\n", r.name, r.s.median, r.unit, r.s.q1, r.s.q3, r.s.n)
		res.Metrics[r.name] = metric{Value: r.s.median, Unit: r.unit}
	}
	fmt.Fprintf(b.out, "%-32s %14.6g %-5s (%d of %d runs failed)\n", "failed_frac",
		per(float64(b.failed), float64(b.attempted)), "", b.failed, b.attempted)
	if !enough {
		b.problem("fewer than two successful runs")
	}
	for _, p := range b.problems {
		fmt.Fprintln(b.out, "FAIL", p)
	}
	res.Correct = len(b.problems) == 0 && b.failed == 0
	return res
}

// probeSetup times set-up from process start: each probe is a fresh
// process that does the workload's set-up and reports readiness just
// before the first call that would run simulated time.
func (b *bench) probeSetup() ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-probe", "-workload", b.w.name, "-seed", strconv.FormatInt(b.c.seed, 10), "-root", b.c.root}
	if b.c.smoke {
		args = append(args, "-smoke")
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, _ := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0).Seconds()
		if err := cmd.Wait(); err != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe: %v %s", err, strings.TrimSpace(stderr.String()))
		}
		out = append(out, d)
	}
	return out, nil
}

// ---------------------------------------------------------------- host measurements

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

type runtimeMetrics struct{ allocBytes, gcCycles float64 }

func readMetrics() runtimeMetrics {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeMetrics{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so each
// run's peak is its own. Where that is not supported the peak is the
// process's so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// ---------------------------------------------------------------- traced run

// perLayer splits the budget: a third measures untraced runs as the
// overhead baseline, the rest traced runs under the CPU profiler, whose
// samples and the allocation profile are attributed to layers.
func (b *bench) perLayer() (result, error) {
	start := time.Now()
	base := b.loop(start.Add(b.budget/3), 1, false)

	runtime.GC()
	alloc0, err := heapProfile()
	if err != nil {
		return result{}, err
	}
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return result{}, err
	}
	traced := b.loop(start.Add(b.budget), 2, true)
	pprof.StopCPUProfile()
	runtime.GC()
	alloc1, err := heapProfile()
	if err != nil {
		return result{}, err
	}
	cpuSamples, err := parseProfile(cpuProf.Bytes())
	if err != nil {
		return result{}, err
	}
	cpu := attribute(cpuSamples, 0)
	alloc := diffAttribution(attribute(alloc1, 1), attribute(alloc0, 1))
	for _, f := range cpu.unmapped {
		b.problem("function %s maps to no layer", f)
	}

	// Exact counters must repeat across runs of the same code and seed.
	var n0 counts
	for i, r := range traced {
		n := r.tr.n
		if i == 0 {
			n0 = n
		} else if n != n0 {
			b.problem("exact counters differ between traced runs: %+v vs %+v", n0, n)
		}
	}

	col := func(f func(rep) float64) summary {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = f(r)
		}
		return summarize(xs)
	}
	exact := func(v float64) summary { return summary{v, v, v, len(traced)} }
	span := func(name string) summary { return col(func(r rep) float64 { return r.tr.spanSeconds(name) }) }
	baseWall := make([]float64, len(base))
	for i, r := range base {
		baseWall[i] = r.wall
	}
	untracedWall := summarize(baseWall).median
	tracedWall := col(func(r rep) float64 { return r.wall }).median

	rows := []row{
		{"sim.events", "count", exact(float64(n0.Events))},
		{"sim.ns_per_event", "ns", col(func(r rep) float64 { return 1e9 * per(r.tr.spanSeconds("engine.run"), float64(r.tr.n.Events)) })},
	}
	for _, l := range cpuLayers {
		rows = append(rows, row{cpuMetric(l), "%", exact(cpu.pct(l))})
	}
	rows = append(rows,
		row{"dfs.alloc_mb", "MB", exact(per(float64(alloc.byLayer[layerDFS])/(1<<20), float64(len(traced))))},
		row{"engine.assemble_s", "s", span("engine.assemble")},
		row{"engine.run_s", "s", span("engine.run")},
		row{"engine.tasks", "count", exact(float64(n0.Tasks))},
		row{"engine.host_us_per_task", "us", col(func(r rep) float64 { return 1e6 * per(r.tr.spanSeconds("engine.run"), float64(r.tr.n.Tasks)) })},
		row{"engine.shuffle_registrations", "count", exact(float64(n0.ShuffleRegs))},
		row{"core.decisions", "count", exact(float64(n0.Decisions))},
		row{"engine.trace_events", "count", exact(float64(n0.TraceEvents))},
		row{"engine.trace_bytes", "bytes", exact(float64(n0.TraceBytes))},
		row{"telemetry.export_s", "s", span("telemetry.export")},
		row{"invariant.violations", "count", exact(float64(n0.Violations))},
		row{"scenario.load_s", "s", span("scenario.load")},
		row{"gc.cycles", "count", col(func(r rep) float64 { return r.gcCycles })},
		row{"trace.overhead_pct", "%", exact(100 * per(tracedWall-untracedWall, untracedWall))},
	)
	fmt.Fprintf(b.out, "untraced wall %.4fs over %d runs, traced wall %.4fs over %d runs, %d CPU samples\n",
		untracedWall, len(base), tracedWall, len(traced), len(cpuSamples))
	if len(traced) > 0 {
		fmt.Fprint(b.out, "spans, median seconds per run:")
		seen := map[string]bool{}
		for _, sp := range traced[0].tr.spans {
			if !seen[sp.name] {
				seen[sp.name] = true
				fmt.Fprintf(b.out, " %s %.6f", sp.name, span(sp.name).median)
			}
		}
		fmt.Fprintln(b.out)
	}
	return b.finish(rows, len(traced) >= 2 && len(base) >= 1), nil
}

// per divides, giving 0 for a zero divisor so a broken run still yields a
// printable (incorrect) result.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapProfile snapshots the cumulative allocation profile.
func heapProfile() ([]stackSample, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes())
}

// diffAttribution subtracts an earlier snapshot of a cumulative profile.
func diffAttribution(after, before attribution) attribution {
	d := attribution{total: after.total - before.total, byLayer: map[string]int64{}}
	for l, v := range after.byLayer {
		d.byLayer[l] = v - before.byLayer[l]
	}
	return d
}
