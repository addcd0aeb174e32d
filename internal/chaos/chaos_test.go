package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseQuiet(t *testing.T) {
	for _, spec := range []string{"", "quiet", "none", "  quiet  "} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p != nil {
			t.Fatalf("Parse(%q) = %+v, want nil", spec, p)
		}
	}
}

func TestParseCrash(t *testing.T) {
	p, err := Parse("crash@90s")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 1 {
		t.Fatalf("crashes = %d, want 1", len(p.Crashes))
	}
	c := p.Crashes[0]
	if c.Exec != 1 || c.At != 90*time.Second || c.RestartAfter != 0 {
		t.Fatalf("crash = %+v", c)
	}

	p, err = Parse("crash2@2m+30s")
	if err != nil {
		t.Fatal(err)
	}
	c = p.Crashes[0]
	if c.Exec != 2 || c.At != 2*time.Minute || c.RestartAfter != 30*time.Second {
		t.Fatalf("crash = %+v", c)
	}
}

func TestParseCombined(t *testing.T) {
	p, err := Parse("crash@1m+10s,flaky:0.02,fetch:0.04,seed:7")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 1 || p.TaskFaultRate != 0.02 || p.FetchFaultRate != 0.04 || p.Seed != 7 {
		t.Fatalf("plan = %+v", p)
	}
	if p.Name != "crash@1m+10s,flaky:0.02,fetch:0.04,seed:7" {
		t.Fatalf("name = %q", p.Name)
	}
}

func TestParseDefaults(t *testing.T) {
	p, err := Parse("flaky,fetch")
	if err != nil {
		t.Fatal(err)
	}
	if p.TaskFaultRate != 0.05 || p.FetchFaultRate != 0.1 {
		t.Fatalf("default rates = %g/%g", p.TaskFaultRate, p.FetchFaultRate)
	}
}

func TestParseMayhem(t *testing.T) {
	p, err := Parse("mayhem@100s")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 1 || p.Crashes[0].At != 40*time.Second || p.Crashes[0].RestartAfter != 20*time.Second {
		t.Fatalf("mayhem crashes = %+v", p.Crashes)
	}
	if p.TaskFaultRate <= 0 || p.FetchFaultRate <= 0 {
		t.Fatalf("mayhem rates = %g/%g", p.TaskFaultRate, p.FetchFaultRate)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{"crash", "crash@", "crashx@1m", "flaky:2", "bogus", "seed:x", "crash@1m+x"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// TestParseRejectsBadValues checks every value the engine would panic on
// or silently coerce is rejected, with an error naming the clause.
func TestParseRejectsBadValues(t *testing.T) {
	for _, c := range []struct{ spec, clause string }{
		{"crash@-5s", "crash@-5s"},
		{"crash1@-5s", "crash1@-5s"},
		{"crash-1@5s", "crash-1@5s"},
		{"crash1@5s+-3s", "crash1@5s+-3s"},
		{"slow:-2@5sx4", "slow:-2@5sx4"},
		{"slow@-1s", "slow@-1s"},
		{"slow@1sxNaN", "slow@1sxNaN"},
		{"slow@1sx+Inf", "slow@1sx+Inf"},
		{"partition@-1s+5s", "partition@-1s+5s"},
		{"partition-1@1s+5s", "partition-1@1s+5s"},
		{"mayhem@-10s", "mayhem@-10s"},
		{"flaky:0", "flaky:0"},
		{"fetch:0", "fetch:0"},
		{"corrupt:0", "corrupt:0"},
		{"flaky:NaN", "flaky:NaN"},
		{"flaky:-0.1", "flaky:-0.1"},
		{"crash1@45%", "crash1@45%"},
		{"seed:3,crash@-5s", "crash@-5s"},
		{",", ","},
	} {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.clause) {
			t.Errorf("Parse(%q): error %q does not name the clause %q", c.spec, err, c.clause)
		}
	}
}

// TestParseSchedulePercentages checks percentages are a ParseSchedule-only
// form, bounded to 0%-100%.
func TestParseSchedulePercentages(t *testing.T) {
	for _, spec := range []string{"crash1@45%", "crash1@0%+100%", "mayhem@80%", "slow1@25%x4,flaky"} {
		if _, err := ParseSchedule(spec); err != nil {
			t.Errorf("ParseSchedule(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"crash1@101%", "crash1@-5%", "crash1@45%%", "partition1@25%+0%", "crash1@4.5%"} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", spec)
		}
	}
}

// TestPercentScheduleMath pins the percentage-time resolution to integer
// math on nanoseconds (quiet*pct/100) and single-clause schedules to their
// constructors, names and cluster seed included.
func TestPercentScheduleMath(t *testing.T) {
	quiet := 151200 * time.Millisecond
	cases := []struct {
		clause string
		want   *Plan
	}{
		{"crash1@45%", CrashAt(1, quiet*45/100)},
		{"crash1@45%+20%", CrashRestart(1, quiet*45/100, quiet*20/100)},
		{"slow1@25%x4", SlowAt(1, quiet/4, 4)},
		{"partition1@25%+20%", PartitionAt(1, quiet/4, quiet*20/100)},
		{"flaky:0.02", Flaky(0.02, 7)},
		{"corrupt:0.05", Corrupt(0.05, 7)},
	}
	for _, c := range cases {
		gen, err := ParseSchedule(c.clause)
		if err != nil {
			t.Fatalf("%s: %v", c.clause, err)
		}
		got := gen(quiet, 7)
		if got.String() != c.want.String() {
			t.Errorf("%s: plan name %q, want %q", c.clause, got, c.want)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: plan differs from the constructor-built equivalent", c.clause)
		}
	}
}

// TestParseScheduleMultiClause checks a comma-separated schedule is built
// as Parse builds it: named by the spec, seeded by its seed clause.
func TestParseScheduleMultiClause(t *testing.T) {
	const spec = "crash1@50%,flaky:0.02,seed:9"
	gen, err := ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := gen(100*time.Second, 7)
	want := &Plan{Name: spec, Seed: 9, TaskFaultRate: 0.02,
		Crashes: []Crash{{Exec: 1, At: 50 * time.Second}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan = %+v, want %+v", got, want)
	}
	if gen, _ := ParseSchedule("quiet"); gen(time.Minute, 1) != nil {
		t.Error("quiet schedule built a plan")
	}
}

func TestTaskFaultDeterministic(t *testing.T) {
	a := &Plan{Seed: 3, TaskFaultRate: 0.3}
	b := &Plan{Seed: 3, TaskFaultRate: 0.3}
	for stage := 0; stage < 3; stage++ {
		for task := 0; task < 50; task++ {
			f1, at1 := a.TaskFault(stage, task, 0, 3)
			f2, at2 := b.TaskFault(stage, task, 0, 3)
			if f1 != f2 || at1 != at2 {
				t.Fatalf("stage %d task %d: (%v,%g) vs (%v,%g)", stage, task, f1, at1, f2, at2)
			}
		}
	}
}

func TestTaskFaultRate(t *testing.T) {
	p := &Plan{Seed: 1, TaskFaultRate: 0.2}
	hits := 0
	const n = 5000
	for task := 0; task < n; task++ {
		if ok, frac := p.TaskFault(0, task, 0, 3); ok {
			hits++
			if frac < 0.1 || frac >= 0.9 {
				t.Fatalf("fault fraction %g out of [0.1, 0.9)", frac)
			}
		}
	}
	got := float64(hits) / n
	if got < 0.15 || got > 0.25 {
		t.Fatalf("fault rate = %.3f, want ≈0.2", got)
	}
}

func TestInjectionRespectsAttemptBudget(t *testing.T) {
	p := &Plan{Seed: 1, TaskFaultRate: 1, FetchFaultRate: 1}
	// Default MaxInjected is 2: attempts 0 and 1 fault, attempt 2 does not.
	for attempt := 0; attempt < 5; attempt++ {
		want := attempt < 2
		if ok, _ := p.TaskFault(0, 0, attempt, 3); ok != want {
			t.Fatalf("TaskFault attempt %d = %v, want %v", attempt, ok, want)
		}
		if ok := p.FetchFault(0, 0, attempt, 3); ok != want {
			t.Fatalf("FetchFault attempt %d = %v, want %v", attempt, ok, want)
		}
	}
	// A tighter engine budget (task.maxFailures = 2 ⇒ budget 1) wins.
	if ok, _ := p.TaskFault(0, 0, 1, 1); ok {
		t.Fatal("TaskFault ignored the engine attempt budget")
	}
}

func TestSeedChangesFaults(t *testing.T) {
	a := &Plan{Seed: 1, TaskFaultRate: 0.2}
	b := &Plan{Seed: 2, TaskFaultRate: 0.2}
	same := true
	for task := 0; task < 200; task++ {
		fa, _ := a.TaskFault(0, task, 0, 3)
		fb, _ := b.TaskFault(0, task, 0, 3)
		if fa != fb {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault sets")
	}
}

func TestEmptyAndString(t *testing.T) {
	var p *Plan
	if !p.Empty() || p.String() != "quiet" {
		t.Fatal("nil plan should be quiet/empty")
	}
	if !Quiet().Empty() {
		t.Fatal("Quiet() not empty")
	}
	if CrashAt(1, time.Minute).Empty() {
		t.Fatal("crash plan reported empty")
	}
	if got := CrashRestart(2, time.Minute, 10*time.Second).String(); got != "crash2@1m0s+10s" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSortedCrashes(t *testing.T) {
	p := &Plan{Crashes: []Crash{
		{Exec: 2, At: 30 * time.Second},
		{Exec: 1, At: 10 * time.Second},
		{Exec: 0, At: 30 * time.Second},
	}}
	got := p.SortedCrashes()
	if got[0].Exec != 1 || got[1].Exec != 0 || got[2].Exec != 2 {
		t.Fatalf("sorted = %+v", got)
	}
}

func TestParseGrayClauses(t *testing.T) {
	p, err := Parse("slow:1@60sx4,partition:2@90s+45s,corrupt:0.02")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Slows) != 1 || p.Slows[0] != (Slow{Exec: 1, At: time.Minute, Factor: 4}) {
		t.Fatalf("slows = %+v", p.Slows)
	}
	if len(p.Partitions) != 1 ||
		p.Partitions[0] != (Partition{Exec: 2, At: 90 * time.Second, Duration: 45 * time.Second}) {
		t.Fatalf("partitions = %+v", p.Partitions)
	}
	if p.CorruptRate != 0.02 {
		t.Fatalf("corrupt rate = %g", p.CorruptRate)
	}

	// Defaults: executor 1, factor 2, corrupt rate 0.01.
	p, err = Parse("slow@10s,corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Slows[0] != (Slow{Exec: 1, At: 10 * time.Second, Factor: 2}) {
		t.Fatalf("default slow = %+v", p.Slows[0])
	}
	if p.CorruptRate != 0.01 {
		t.Fatalf("default corrupt rate = %g", p.CorruptRate)
	}

	for _, bad := range []string{
		"slow", "slow@", "slow:x@10s", "slow@10sx0", "slow@10sx-1",
		"partition@10s", "partition:1@10s", "partition@10s+0s", "partition@10s+x",
		"corrupt:2", "corrupt:x",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestPartitionedWindows(t *testing.T) {
	p := &Plan{Partitions: []Partition{{Exec: 1, At: 10 * time.Second, Duration: 5 * time.Second}}}
	cases := []struct {
		exec int
		at   time.Duration
		want bool
	}{
		{1, 9 * time.Second, false},
		{1, 10 * time.Second, true}, // window start inclusive
		{1, 14 * time.Second, true},
		{1, 15 * time.Second, false}, // window end exclusive
		{2, 12 * time.Second, false}, // other executor
	}
	for _, c := range cases {
		if got := p.Partitioned(c.exec, c.at); got != c.want {
			t.Errorf("Partitioned(%d, %v) = %v, want %v", c.exec, c.at, got, c.want)
		}
	}
	var nilPlan *Plan
	if nilPlan.Partitioned(1, time.Second) {
		t.Error("nil plan reported a partition")
	}
}

// FuzzParsePlan fuzzes the chaos spec parser: Parse must never panic, and
// accepted specs must describe internally consistent plans that re-parse
// identically (the spec string is the plan's name).
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"", "quiet", "none",
		"crash@90s", "crash2@2m+30s", "mayhem@100s",
		"flaky", "flaky:0.02", "fetch:0.04", "seed:7",
		"slow:1@60sx4", "slow@10s", "partition:2@90s+45s", "corrupt:0.02", "corrupt",
		"crash@1m+10s,flaky:0.02,fetch:0.04,seed:7",
		"slow:1@60sx4,partition:2@90s+45s,corrupt:0.02",
		"crash", "slow@10sx0", "partition@10s", "corrupt:2", "bogus", "seed:x",
		"crash@-5s", "crash-1@5s", "slow:-2@5sx4", "crash1@5s+-3s", "flaky:0",
		"mayhem@-10s", "crash1@45%", "slow1@25%x4", "partition1@25%+20%",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if p == nil {
			return // quiet
		}
		checkPlan(t, spec, p)
		for _, w := range p.Partitions {
			if w.Duration <= 0 {
				t.Fatalf("Parse(%q) accepted non-positive partition duration %v", spec, w.Duration)
			}
		}
		q, err := Parse(p.Name)
		if err != nil {
			t.Fatalf("accepted spec %q does not re-parse: %v", spec, err)
		}
		if q.String() != p.String() {
			t.Fatalf("re-parse of %q changed the plan: %q vs %q", spec, q, p)
		}
	})
}

// FuzzParseSchedule fuzzes the percentage entry point with a fuzzed quiet
// runtime: it must never panic, must accept every spec Parse accepts, and
// must build only plans whose times stay non-negative.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"quiet", "crash1@45%", "crash1@45%+20%", "slow1@25%x4", "partition1@25%+20%",
		"flaky:0.02", "corrupt:0.05", "mayhem@80%", "crash1@50%,flaky:0.02,seed:9",
		"crash1@101%", "crash1@-5%", "partition1@25%+0%", "crash@-5s",
	} {
		f.Add(seed, int64(151200*time.Millisecond))
	}
	f.Fuzz(func(t *testing.T, spec string, q int64) {
		gen, err := ParseSchedule(spec)
		if err != nil {
			if _, perr := Parse(spec); perr == nil {
				t.Fatalf("ParseSchedule rejects %q, which Parse accepts: %v", spec, err)
			}
			return
		}
		// Quiet runtimes are non-negative and far below the 2^56 ns bound
		// (over two years) that keeps quiet*pct from overflowing.
		quiet := time.Duration(uint64(q) % (1 << 56))
		if p := gen(quiet, 1); p != nil {
			checkPlan(t, spec, p)
		}
	})
}

// checkPlan asserts an accepted plan is one the engine can run as written.
func checkPlan(t *testing.T, spec string, p *Plan) {
	t.Helper()
	for _, c := range p.Crashes {
		if c.At < 0 || c.RestartAfter < 0 || c.Exec < 0 {
			t.Fatalf("%q: accepted crash %+v with a negative field", spec, c)
		}
	}
	for _, s := range p.Slows {
		if !(s.Factor > 0) || s.At < 0 || s.Exec < 0 {
			t.Fatalf("%q: accepted slowdown %+v", spec, s)
		}
	}
	for _, w := range p.Partitions {
		if w.Duration < 0 || w.At < 0 || w.Exec < 0 {
			t.Fatalf("%q: accepted partition %+v", spec, w)
		}
	}
	for _, rate := range []float64{p.TaskFaultRate, p.FetchFaultRate, p.CorruptRate} {
		if !(rate >= 0 && rate <= 1) {
			t.Fatalf("%q: accepted rate %g outside [0,1]", spec, rate)
		}
	}
}
