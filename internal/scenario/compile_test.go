package scenario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/conf"
	"sae/internal/exp"
	"sae/internal/workloads"
)

func loadGolden(t *testing.T, name string) *Spec {
	t.Helper()
	sp, err := Builtin(strings.TrimSuffix(name, ".yaml"))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return sp
}

func runScenario(t *testing.T, sp *Spec, s exp.Setup) fmt.Stringer {
	t.Helper()
	c, err := sp.Compile(s)
	if err != nil {
		t.Fatalf("compile %s: %v", sp.Name, err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("run %s: %v", sp.Name, err)
	}
	return res
}

// requireGolden runs the built-in spec name at setup s and asserts its
// report and CSV tables match testdata/golden byte for byte. The goldens
// were captured from the Go constructors these specs replaced, so they pin
// the experiments to the bytes they have always produced.
func requireGolden(t *testing.T, name string, s exp.Setup) {
	t.Helper()
	res, err := RunBuiltin(name, s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	golden := filepath.Join("testdata", "golden")
	want, err := os.ReadFile(filepath.Join(golden, name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != string(want) {
		t.Errorf("%s: report differs from the golden\n--- golden ---\n%s--- got ---\n%s", name, want, res)
	}
	tab, ok := res.(exp.Tabular)
	if !ok {
		t.Fatalf("%s: result %T is not Tabular", name, res)
	}
	dir := t.TempDir()
	if err := exp.WriteCSV(dir, tab); err != nil {
		t.Fatal(err)
	}
	if len(tab.CSVTables()) != 1 {
		t.Errorf("%s: %d CSV tables, want 1", name, len(tab.CSVTables()))
	}
	for table := range tab.CSVTables() {
		got, err := os.ReadFile(filepath.Join(dir, table+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(golden, table+".csv"))
		if err != nil {
			t.Fatalf("%s: no golden for CSV table %s: %v", name, table, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: CSV table %s differs from the golden\n--- golden ---\n%s--- got ---\n%s", name, table, want, got)
		}
	}
}

// TestFaultsScenarioByteIdentical pins the faults experiment's report, CSV
// and trace bytes (the trace by its SHA-256).
func TestFaultsScenarioByteIdentical(t *testing.T) {
	var trace bytes.Buffer
	s := exp.Default().WithScale(0.04)
	s.Trace = &trace
	requireGolden(t, "faults", s)
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "faults.trace.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x\n", sha256.Sum256(trace.Bytes())); got != string(want) {
		t.Errorf("faults: trace SHA-256 %s, golden %s", strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}

func TestGrayFailScenarioByteIdentical(t *testing.T) {
	requireGolden(t, "grayfail", exp.Default().WithScale(0.04))
}

func TestMultiTenantScenarioByteIdentical(t *testing.T) {
	requireGolden(t, "multitenant", exp.Default().WithScale(0.02))
}

func TestAutoscaleScenarioByteIdentical(t *testing.T) {
	s := exp.Default().WithScale(0.05)
	s.Seed = 7
	requireGolden(t, "autoscale", s)
}

// TestSingleScenario runs scenarios/terasort-crash.yaml against the
// hand-built equivalent setup and checks the assertions pass.
func TestSingleScenario(t *testing.T) {
	sp := loadGolden(t, "terasort-crash.yaml")
	s := sp.BaseSetup().WithScale(0.05)

	// Hand-coded equivalent: same conf override, same chaos plan.
	reg := conf.New()
	if err := reg.Set("shuffle.io.maxRetries", "6"); err != nil {
		t.Fatal(err)
	}
	goSetup := s
	goSetup.Config = reg
	goSetup = goSetup.WithFaults(chaos.CrashAt(1, 90*time.Second))
	w, err := workloads.ByName("terasort", workloads.Config{Nodes: s.Nodes, Scale: s.Scale})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := exp.PolicyByName("dynamic")
	if err != nil {
		t.Fatal(err)
	}
	goRep, err := goSetup.Run(w, pol, nil)
	if err != nil {
		t.Fatal(err)
	}

	res := runScenario(t, sp, s)
	single, ok := res.(*SingleResult)
	if !ok {
		t.Fatalf("single scenario returned %T", res)
	}
	if single.Report.String() != goRep.String() {
		t.Errorf("single: scenario report differs from the hand-coded run\n--- go ---\n%s--- scenario ---\n%s",
			goRep, single.Report)
	}
	if fails := single.Failures(); len(fails) > 0 {
		t.Errorf("single: expect assertions failed: %v", fails)
	}
	if len(single.Checks) != 2 {
		t.Errorf("single: want 2 checks, got %d", len(single.Checks))
	}
}

// TestScenarioConfCLIOverride checks CLI-set conf values beat the spec's.
func TestScenarioConfCLIOverride(t *testing.T) {
	sp := loadGolden(t, "terasort-crash.yaml")
	s := sp.BaseSetup()
	reg := conf.New()
	if err := reg.Set("shuffle.io.maxRetries", "9"); err != nil {
		t.Fatal(err)
	}
	s.Config = reg
	c, err := sp.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Setup.Config.Get("shuffle.io.maxRetries")
	if err != nil {
		t.Fatal(err)
	}
	if got != "9" {
		t.Errorf("CLI conf override lost: shuffle.io.maxRetries = %q, want 9", got)
	}
}
