// Package chaos provides deterministic, seeded fault schedules for the
// simulated cluster: executor crashes at a virtual time (optionally followed
// by a restart), transient task I/O faults, and shuffle-fetch failures. A
// Plan is pure data plus pure hash functions — it holds no clock and no
// RNG state, so the same plan injects exactly the same faults into the same
// run every time, preserving the repo's determinism guarantee. The engine
// consults the plan from the sim clock (crash events) and from task
// attempts (fault rolls); the chaos package itself knows nothing about the
// engine.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Crash schedules the loss of one executor at a virtual time.
type Crash struct {
	// Exec is the executor ID to kill.
	Exec int
	// At is the virtual time of the crash, measured from job start.
	At time.Duration
	// RestartAfter, if positive, brings the executor back that long
	// after the crash with a fresh controller (restart at cmin).
	RestartAfter time.Duration
}

// Slow schedules a gray failure: from At onward, one node's disk and CPU
// serve at 1/Factor of their nominal rate (a degrading drive, thermal
// throttling, a noisy neighbour stealing cycles). The executor stays alive
// and keeps heartbeating — nothing crashes, everything just gets slower.
type Slow struct {
	// Exec is the executor/node ID to degrade.
	Exec int
	// At is the virtual time the degradation sets in.
	At time.Duration
	// Factor divides the node's device service rates (2 = half speed).
	Factor float64
}

// Partition cuts one executor's network for a window: its heartbeats and
// shuffle fetches to/from it are dropped while tasks already on the node
// keep running — the classic gray failure that turns a failure detector's
// timeout into a false positive.
type Partition struct {
	// Exec is the executor/node ID to isolate.
	Exec int
	// At is the virtual time the partition starts.
	At time.Duration
	// Duration is how long the partition lasts.
	Duration time.Duration
}

// Plan is a named, seeded fault schedule.
type Plan struct {
	// Name labels the plan in reports ("quiet", "crash@2m", …).
	Name string
	// Seed drives the per-(stage,task,attempt) fault hashes.
	Seed int64
	// Crashes lists scheduled executor losses, in no particular order.
	Crashes []Crash
	// Slows lists scheduled node degradations (gray failures).
	Slows []Slow
	// Partitions lists scheduled network partitions (gray failures).
	Partitions []Partition
	// TaskFaultRate is the probability that a task attempt suffers a
	// transient I/O fault partway through its input.
	TaskFaultRate float64
	// FetchFaultRate is the probability that a reduce task attempt's
	// shuffle fetch fails transiently.
	FetchFaultRate float64
	// CorruptRate is the probability that one DFS block replica is
	// bit-rotten: reads of it return data whose CRC32 does not match the
	// block's stored checksum. Rot is a property of the (block, node)
	// pair — re-reading the same replica fails the same way; failover to
	// another replica is the only way out.
	CorruptRate float64
	// MaxInjected caps how many attempts of one task may receive
	// injected faults (0 selects 2), so injected transients can never
	// exhaust the engine's task.maxFailures budget on their own.
	MaxInjected int
}

// Quiet returns the empty schedule: no faults.
func Quiet() *Plan { return &Plan{Name: "quiet"} }

// CrashAt returns a plan that permanently kills executor exec at t.
func CrashAt(exec int, at time.Duration) *Plan {
	return &Plan{
		Name:    fmt.Sprintf("crash%d@%s", exec, at),
		Crashes: []Crash{{Exec: exec, At: at}},
	}
}

// CrashRestart returns a plan that kills executor exec at t and restarts it
// after the given delay.
func CrashRestart(exec int, at, after time.Duration) *Plan {
	return &Plan{
		Name:    fmt.Sprintf("crash%d@%s+%s", exec, at, after),
		Crashes: []Crash{{Exec: exec, At: at, RestartAfter: after}},
	}
}

// Flaky returns a plan injecting transient task I/O faults at the given
// rate.
func Flaky(rate float64, seed int64) *Plan {
	return &Plan{Name: fmt.Sprintf("flaky:%g", rate), Seed: seed, TaskFaultRate: rate}
}

// FetchStorm returns a plan injecting transient shuffle-fetch failures at
// the given rate.
func FetchStorm(rate float64, seed int64) *Plan {
	return &Plan{Name: fmt.Sprintf("fetch:%g", rate), Seed: seed, FetchFaultRate: rate}
}

// Mayhem returns a plan combining a mid-horizon crash-and-restart with
// transient task and fetch faults.
func Mayhem(horizon time.Duration, seed int64) *Plan {
	return &Plan{
		Name:           fmt.Sprintf("mayhem@%s", horizon),
		Seed:           seed,
		Crashes:        []Crash{{Exec: 1, At: horizon * 2 / 5, RestartAfter: horizon / 5}},
		TaskFaultRate:  0.02,
		FetchFaultRate: 0.03,
	}
}

// SlowAt returns a plan degrading executor exec's devices by factor from t.
func SlowAt(exec int, at time.Duration, factor float64) *Plan {
	return &Plan{
		Name:  fmt.Sprintf("slow%d@%sx%g", exec, at, factor),
		Slows: []Slow{{Exec: exec, At: at, Factor: factor}},
	}
}

// PartitionAt returns a plan isolating executor exec's network for dur
// starting at t.
func PartitionAt(exec int, at, dur time.Duration) *Plan {
	return &Plan{
		Name:       fmt.Sprintf("partition%d@%s+%s", exec, at, dur),
		Partitions: []Partition{{Exec: exec, At: at, Duration: dur}},
	}
}

// Corrupt returns a plan bit-rotting the given fraction of block replicas.
func Corrupt(rate float64, seed int64) *Plan {
	return &Plan{Name: fmt.Sprintf("corrupt:%g", rate), Seed: seed, CorruptRate: rate}
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Slows) == 0 && len(p.Partitions) == 0 &&
		p.TaskFaultRate <= 0 && p.FetchFaultRate <= 0 && p.CorruptRate <= 0)
}

// String returns the plan's name.
func (p *Plan) String() string {
	if p == nil {
		return "quiet"
	}
	return p.Name
}

func (p *Plan) maxInjected() int {
	if p.MaxInjected <= 0 {
		return 2
	}
	return p.MaxInjected
}

// TaskFault reports whether the given attempt of task (stage, task) suffers
// an injected transient I/O fault, and at which fraction of its input the
// fault strikes. attemptBudget is the engine's surviving-attempt budget
// (task.maxFailures − 1): injection stops below both caps so an injected
// fault can never abort a job by itself.
func (p *Plan) TaskFault(stage, task, attempt, attemptBudget int) (bool, float64) {
	if p == nil || p.TaskFaultRate <= 0 {
		return false, 0
	}
	if lim := p.maxInjected(); attemptBudget > lim {
		attemptBudget = lim
	}
	if attempt >= attemptBudget {
		return false, 0
	}
	if !p.roll(1, stage, task, attempt, p.TaskFaultRate) {
		return false, 0
	}
	// Strike somewhere in the middle of the input: [0.1, 0.9).
	return true, 0.1 + 0.8*p.frac(2, stage, task, attempt)
}

// FetchFault reports whether the given attempt's shuffle fetch fails
// transiently, under the same attempt budget as TaskFault.
func (p *Plan) FetchFault(stage, task, attempt, attemptBudget int) bool {
	if p == nil || p.FetchFaultRate <= 0 {
		return false
	}
	if lim := p.maxInjected(); attemptBudget > lim {
		attemptBudget = lim
	}
	if attempt >= attemptBudget {
		return false
	}
	return p.roll(3, stage, task, attempt, p.FetchFaultRate)
}

// FetchFaultTry reports whether the given retry (try 0 = the first fetch
// attempt) of a reduce attempt's shuffle fetch fails transiently. Try 0
// delegates to FetchFault so plans written before bounded fetch retries keep
// rolling the same coordinates; later tries roll fresh coordinates under the
// same per-task attempt budget, so a retry loop can observe a fault clear.
func (p *Plan) FetchFaultTry(stage, task, attempt, try, attemptBudget int) bool {
	if try == 0 {
		return p.FetchFault(stage, task, attempt, attemptBudget)
	}
	if p == nil || p.FetchFaultRate <= 0 {
		return false
	}
	if lim := p.maxInjected(); attemptBudget > lim {
		attemptBudget = lim
	}
	if attempt >= attemptBudget {
		return false
	}
	return p.roll(5, stage, task, attempt*64+try, p.FetchFaultRate)
}

// CorruptReplica reports whether the replica of the block with checksum sum
// stored on the given node is bit-rotten. The roll is keyed by (sum, node)
// only — no attempt coordinate — so re-reads of the same replica fail
// identically and failover to another replica is the only way out.
func (p *Plan) CorruptReplica(sum uint32, node int) bool {
	if p == nil || p.CorruptRate <= 0 {
		return false
	}
	return p.roll(4, int(sum), node, 0, p.CorruptRate)
}

// Partitioned reports whether executor exec is inside a partition window at
// virtual time now. Windows are half-open: [At, At+Duration).
func (p *Plan) Partitioned(exec int, now time.Duration) bool {
	if p == nil {
		return false
	}
	for _, w := range p.Partitions {
		if w.Exec == exec && now >= w.At && now < w.At+w.Duration {
			return true
		}
	}
	return false
}

// SortedCrashes returns the crash schedule ordered by time then executor.
func (p *Plan) SortedCrashes() []Crash {
	if p == nil {
		return nil
	}
	out := append([]Crash(nil), p.Crashes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Exec < out[j].Exec
	})
	return out
}

// SortedSlows returns the degradation schedule ordered by time then executor.
func (p *Plan) SortedSlows() []Slow {
	if p == nil {
		return nil
	}
	out := append([]Slow(nil), p.Slows...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Exec < out[j].Exec
	})
	return out
}

// SortedPartitions returns the partition schedule ordered by start time then
// executor.
func (p *Plan) SortedPartitions() []Partition {
	if p == nil {
		return nil
	}
	out := append([]Partition(nil), p.Partitions...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Exec < out[j].Exec
	})
	return out
}

// roll draws a deterministic Bernoulli from the plan's seed and the fault
// coordinates.
func (p *Plan) roll(kind, stage, task, attempt int, rate float64) bool {
	if rate >= 1 {
		return true
	}
	return p.frac(kind, stage, task, attempt) < rate
}

// frac hashes the fault coordinates to a uniform float64 in [0, 1).
func (p *Plan) frac(kind, stage, task, attempt int) float64 {
	h := splitmix(uint64(p.Seed) ^ 0x9e3779b97f4a7c15)
	h = splitmix(h ^ uint64(kind))
	h = splitmix(h ^ uint64(stage))
	h = splitmix(h ^ uint64(task))
	h = splitmix(h ^ uint64(attempt))
	return float64(h>>11) / (1 << 53)
}

// splitmix is the SplitMix64 finalizer — the same stateless hashing idiom
// the device variability model uses for deterministic per-node factors.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Parse builds a plan from a compact spec string: a comma-separated list of
// clauses. Supported clauses:
//
//	quiet | none          no faults (alone)
//	crash@T               executor 1 crashes at virtual time T (e.g. 90s)
//	crash@T+R             … and restarts R after the crash
//	crashN@T[+R]          same for executor N
//	flaky[:RATE]          transient task I/O faults (default rate 0.05)
//	fetch[:RATE]          transient shuffle-fetch failures (default 0.1)
//	slow:N@TxF            executor N's disk and CPU degrade to 1/F of their
//	                      nominal rate from T onward (gray failure)
//	partition:N@T+D       executor N's network drops (heartbeats and shuffle
//	                      fetches) for the window [T, T+D); running tasks
//	                      keep computing
//	corrupt[:RATE]        each DFS block replica is bit-rotten with the
//	                      given probability (default 0.01); reads fail the
//	                      CRC32 check until failover
//	mayhem@T              crash-restart of executor 1 mid-horizon T plus
//	                      low-rate task and fetch faults
//	seed:N                hash seed (default 1)
//
// The executor number may follow the clause name directly or after a ':'
// (crash1@…, slow:1@…). Times, delays and durations are non-negative, a
// partition lasts a positive time, a slowdown factor is positive and
// finite, and a rate lies in (0, 1]; anything else is rejected with an
// error naming the clause. Example: "crash1@2m+30s,flaky:0.02,seed:7" or
// "slow:1@60sx4,partition:2@90s+45s,corrupt:0.02". Percentage times are
// ParseSchedule's alone. The plan is named by the spec string. Parse
// returns nil for the quiet plan.
func Parse(spec string) (*Plan, error) {
	cs, err := parseClauses(spec, false)
	if err != nil || cs == nil {
		return nil, err
	}
	return combine(strings.TrimSpace(spec), cs, 0), nil
}

// ParseSchedule parses one schedule of a chaos matrix. It accepts the Parse
// grammar plus percentage times ("crash1@45%"): a percentage is a fraction
// of the policy's quiet runtime, resolved as quiet*pct/100 on nanoseconds
// once a calibration run has measured it. A single-clause schedule is built
// by its constructor (CrashAt, SlowAt, Flaky, …), so it is named by that
// constructor ("crash1@1m8.04s") and its rates are seeded by the cluster
// seed passed to the returned function; a comma-separated schedule is built
// as Parse builds it. The returned function yields nil for the quiet
// schedule.
func ParseSchedule(spec string) (func(quiet time.Duration, seed int64) *Plan, error) {
	cs, err := parseClauses(spec, true)
	switch {
	case err != nil:
		return nil, err
	case cs == nil:
		return func(time.Duration, int64) *Plan { return nil }, nil
	case !strings.Contains(spec, ",") && cs[0].kind != "seed":
		return cs[0].plan, nil
	}
	spec = strings.TrimSpace(spec)
	return func(quiet time.Duration, _ int64) *Plan { return combine(spec, cs, quiet) }, nil
}

// clause is one parsed clause of a spec.
type clause struct {
	kind   string // crash, slow, partition, flaky, fetch, corrupt, mayhem or seed
	exec   int
	at     instant // crash, slowdown or partition start; mayhem horizon
	span   instant // restart delay or partition duration
	spans  bool    // a crash clause carries a restart delay
	factor float64
	rate   float64
	seed   int64
}

// instant is a clause time: a duration, or a percentage of the quiet
// runtime.
type instant struct {
	d     time.Duration
	pct   int64
	isPct bool
}

func (t instant) resolve(quiet time.Duration) time.Duration {
	if t.isPct {
		return quiet * time.Duration(t.pct) / 100
	}
	return t.d
}

// plan builds the clause's plan through its constructor.
func (c clause) plan(quiet time.Duration, seed int64) *Plan {
	switch c.kind {
	case "crash":
		if c.spans {
			return CrashRestart(c.exec, c.at.resolve(quiet), c.span.resolve(quiet))
		}
		return CrashAt(c.exec, c.at.resolve(quiet))
	case "slow":
		return SlowAt(c.exec, c.at.resolve(quiet), c.factor)
	case "partition":
		return PartitionAt(c.exec, c.at.resolve(quiet), c.span.resolve(quiet))
	case "flaky":
		return Flaky(c.rate, seed)
	case "fetch":
		return FetchStorm(c.rate, seed)
	case "corrupt":
		return Corrupt(c.rate, seed)
	case "mayhem":
		return Mayhem(c.at.resolve(quiet), seed)
	}
	return &Plan{} // seed clauses inject nothing
}

// combine merges the clauses' plans into one plan named by the spec and
// seeded by its seed clause (default 1).
func combine(spec string, cs []clause, quiet time.Duration) *Plan {
	p := &Plan{Name: spec, Seed: 1}
	for _, c := range cs {
		if c.kind == "seed" {
			p.Seed = c.seed
			continue
		}
		q := c.plan(quiet, p.Seed)
		p.Crashes = append(p.Crashes, q.Crashes...)
		p.Slows = append(p.Slows, q.Slows...)
		p.Partitions = append(p.Partitions, q.Partitions...)
		if q.TaskFaultRate > 0 {
			p.TaskFaultRate = q.TaskFaultRate
		}
		if q.FetchFaultRate > 0 {
			p.FetchFaultRate = q.FetchFaultRate
		}
		if q.CorruptRate > 0 {
			p.CorruptRate = q.CorruptRate
		}
	}
	return p
}

// parseClauses splits a spec into validated clauses, returning nil for the
// quiet spec. pct admits percentage times.
func parseClauses(spec string, pct bool) ([]clause, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "quiet" || spec == "none" {
		return nil, nil
	}
	var cs []clause
	for _, text := range strings.Split(spec, ",") {
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		c, err := parseClause(text, pct)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	if cs == nil {
		return nil, fmt.Errorf("chaos: spec %q has no clauses", spec)
	}
	return cs, nil
}

// defaultRates are the rates of rate clauses given without one.
var defaultRates = map[string]float64{"flaky": 0.05, "fetch": 0.1, "corrupt": 0.01}

func parseClause(text string, pct bool) (clause, error) {
	bad := func(format string, args ...any) (clause, error) {
		return clause{}, fmt.Errorf("chaos clause %q: %s", text, fmt.Sprintf(format, args...))
	}
	c := clause{exec: 1, factor: 2}
	for _, kind := range []string{"crash", "slow", "partition", "flaky", "fetch", "corrupt", "mayhem", "seed"} {
		if strings.HasPrefix(text, kind) {
			c.kind = kind
			break
		}
	}
	rest := strings.TrimPrefix(text, c.kind)
	switch c.kind {
	case "flaky", "fetch", "corrupt":
		c.rate = defaultRates[c.kind]
		if rest == "" {
			return c, nil
		}
		if !strings.HasPrefix(rest, ":") {
			break
		}
		r, err := strconv.ParseFloat(rest[1:], 64)
		if err != nil || !(r > 0 && r <= 1) {
			return bad("bad rate %q (want a fraction in (0, 1])", rest[1:])
		}
		c.rate = r
		return c, nil
	case "seed":
		if !strings.HasPrefix(rest, ":") {
			break
		}
		n, err := strconv.ParseInt(rest[1:], 10, 64)
		if err != nil {
			return bad("bad seed %q", rest[1:])
		}
		c.seed = n
		return c, nil
	case "mayhem":
		if !strings.HasPrefix(rest, "@") {
			break
		}
		var err error
		if c.at, err = parseInstant(rest[1:], pct); err != nil {
			return bad("bad horizon: %v", err)
		}
		return c, nil
	case "crash", "slow", "partition":
		rest = strings.TrimPrefix(rest, ":")
		at := strings.IndexByte(rest, '@')
		if at < 0 {
			return bad("missing @T")
		}
		if at > 0 {
			n, err := strconv.Atoi(rest[:at])
			if err != nil || n < 0 {
				return bad("bad executor %q (want a non-negative integer)", rest[:at])
			}
			c.exec = n
		}
		times := rest[at+1:]
		var err error
		switch c.kind {
		case "slow":
			if x := strings.IndexByte(times, 'x'); x >= 0 {
				f, err := strconv.ParseFloat(times[x+1:], 64)
				if err != nil || !(f > 0) || math.IsInf(f, 1) {
					return bad("bad factor %q (want a positive number)", times[x+1:])
				}
				c.factor = f
				times = times[:x]
			}
		case "partition":
			plus := strings.IndexByte(times, '+')
			if plus < 0 {
				return bad("want partition[N]@T+D")
			}
			if c.span, err = parseInstant(times[plus+1:], pct); err != nil {
				return bad("bad duration: %v", err)
			}
			if c.span.d == 0 && c.span.pct == 0 {
				return bad("duration must be positive")
			}
			times = times[:plus]
		case "crash":
			if plus := strings.IndexByte(times, '+'); plus >= 0 {
				if c.span, err = parseInstant(times[plus+1:], pct); err != nil {
					return bad("bad restart delay: %v", err)
				}
				c.spans = true
				times = times[:plus]
			}
		}
		if c.at, err = parseInstant(times, pct); err != nil {
			return bad("bad time: %v", err)
		}
		return c, nil
	}
	return clause{}, fmt.Errorf("unknown chaos clause %q (want quiet, crash[N]@T[+R], slow[N]@TxF, partition[N]@T+D, flaky[:RATE], fetch[:RATE], corrupt[:RATE], mayhem@T or seed:N)", text)
}

// parseInstant parses a non-negative duration ("45s") or, when pct is set,
// a percentage of the quiet runtime ("45%").
func parseInstant(s string, pct bool) (instant, error) {
	if n, ok := strings.CutSuffix(s, "%"); ok {
		if !pct {
			return instant{}, fmt.Errorf("percentage %q needs a quiet calibration run, which only chaos-matrix schedules have", s)
		}
		p, err := strconv.ParseInt(n, 10, 64)
		if err != nil || p < 0 {
			return instant{}, fmt.Errorf("%q is not a percentage (want e.g. 45%%)", s)
		}
		if p > 100 {
			return instant{}, fmt.Errorf("percentage %q is out of range (times are fractions of the quiet runtime; want 0%%-100%%)", s)
		}
		return instant{pct: p, isPct: true}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return instant{}, fmt.Errorf("%q is not a duration", s)
	}
	if d < 0 {
		return instant{}, fmt.Errorf("%q is negative", s)
	}
	return instant{d: d}, nil
}
