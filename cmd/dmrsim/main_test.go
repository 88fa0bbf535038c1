package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as the dmrsim binary: with DMRSIM_MAIN set, the test
// executable runs main on its arguments, so the tests can observe exit
// codes and stderr without building anything.
func TestMain(m *testing.M) {
	if os.Getenv("DMRSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Bad input is a usage error — exit 2 with a one-line message — never
// a panic and never a silent accept.
func TestBadInputExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "0"},
		{"-jobs", "-5"},
		{"-nodes", "-3"},
		{"-nodes", "3", "-realistic"}, // jobs wider than the fleet
		{"-powercap", "-1"},
		{"-mtbf", "-1"},
		{"-mttr", "-1"},
		{"-sleep", "-1"},
		{"-ckpt", "-1"},
		{"-bootfail", "1.5"},
		{"-bootfail", "-0.1"},
		{"-arrival", "hourly"},
		{"-elastic", "9:3"},
		{"-elastic", "5:3"},
		{"-elastic", "-1"},
		{"-sleep", "60", "-ladder"},
		{"-fastnodes", "99"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "DMRSIM_MAIN=1")
		out, err := cmd.CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		msg := string(out)
		if code != 2 || !strings.HasPrefix(msg, "dmrsim: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("dmrsim %s: exit %d, output %q; want exit 2 with a one-line dmrsim: message", strings.Join(args, " "), code, msg)
		}
	}
}

// A moldable job only needs its floor to start, so requests wider than
// the fleet are fine under -moldable.
func TestMoldableWiderThanFleetRuns(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-realistic", "-moldable", "-nodes", "16", "-jobs", "12")
	cmd.Env = append(os.Environ(), "DMRSIM_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dmrsim -realistic -moldable -nodes 16: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "makespan:") {
		t.Fatalf("no results printed:\n%s", out)
	}
}
