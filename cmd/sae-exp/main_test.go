package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

// TestListScenariosAnyDirectory checks -list enumerates the committed specs
// from the binary, not from a scenarios/ directory under the working
// directory.
func TestListScenariosAnyDirectory(t *testing.T) {
	t.Chdir(t.TempDir())
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = run([]string{"-list"})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"autoscale", "faults", "grayfail", "multitenant", "terasort-crash"} {
		if !strings.Contains(string(out), "scenarios/"+name+".yaml ") {
			t.Errorf("-list output does not list scenarios/%s.yaml:\n%s", name, out)
		}
	}
}

func TestRunOneExperimentScaledDown(t *testing.T) {
	if err := run([]string{"-scale", "0.05", "table1", "fig6"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunScenarioSweep(t *testing.T) {
	err := run([]string{
		"-scale", "0.02", "-parallel", "2",
		"-scenario", "../../scenarios/terasort-crash.yaml",
		"-scenario", "../../scenarios/multitenant.yaml",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScenarioMissingFile(t *testing.T) {
	if err := run([]string{"-scenario", "no-such-file.yaml"}); err == nil {
		t.Fatal("missing scenario file accepted")
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring the error must contain
	}{
		{[]string{"-nodes", "0", "fig9"}, "-nodes"},
		{[]string{"-nodes", "-3", "fig9"}, "-nodes"},
		{[]string{"-nodes", "0", "-scenario", "../../scenarios/faults.yaml"}, "-nodes"},
		{[]string{"-scale", "0", "table1"}, "-scale"},
		{[]string{"-scale", "-1", "table1"}, "-scale"},
		{[]string{"-scale", "+Inf", "table1"}, "-scale"},
		{[]string{"-parallel", "0", "table1"}, "-parallel"},
		{[]string{"-parallel", "-1", "table1"}, "-parallel"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Errorf("args %v accepted", c.args)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not name %s", c.args, err, c.want)
		}
	}
}
