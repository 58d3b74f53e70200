package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the narration golden in testdata")

// TestMain lets the narration test run the command itself: a child
// copy of the test binary started with CKOS_MAIN=1 executes main with
// its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CKOS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNarrationGolden pins the output of ckos -v, the Cache Kernel
// event narration of the whole system image included, to
// testdata/verbose.golden.
func TestNarrationGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-v")
	cmd.Env = append(os.Environ(), "CKOS_MAIN=1")
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("ckos -v: %v", err)
	}
	golden := filepath.Join("testdata", "verbose.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("ckos -v diverged from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
