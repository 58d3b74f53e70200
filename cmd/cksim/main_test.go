package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run the command itself: a child copy of the
// test binary started with CKSIM_MAIN=1 executes main with its own
// arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CKSIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cksim runs the command with args and returns its stdout, stderr and
// exit code.
func cksim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CKSIM_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("cksim %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String(), code
}

// TestSeedZero: seed 0 is a seed like any other, in both scenario
// families, so -seed 0 runs it rather than printing the usage.
func TestSeedZero(t *testing.T) {
	for _, args := range [][]string{{"-seed", "0"}, {"-orch", "-seed", "0"}} {
		out, errOut, code := cksim(t, args...)
		if code != 0 || !strings.HasPrefix(out, "seed 0\n") {
			t.Errorf("cksim %s: exit %d, stdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, out, errOut)
		}
	}
}

// TestReplayRejectsBadTopology: a hand-edited replay file whose
// machine cannot be built is a usage error (exit 2) with a message,
// not a panic.
func TestReplayRejectsBadTopology(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"Version": 1, "Scenario": {"Seed": 3, "MPMs": 0, "CPUsPerMPM": 2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := cksim(t, "-replay", path)
	if code != 2 || !strings.Contains(errOut, "MPMs") {
		t.Fatalf("cksim -replay of a zero-MPM scenario: exit %d, stdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}
