package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the narration goldens in testdata")

// TestMain lets the narration test run the command itself: a child
// copy of the test binary started with CKTRACE_MAIN=1 executes main
// with its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CKTRACE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNarrationGoldens pins every demo's output, the Cache Kernel
// event narration included, to testdata/<demo>.golden.
func TestNarrationGoldens(t *testing.T) {
	for _, demo := range []string{"pagefault", "messaging", "paradigm", "writeback", "recovery"} {
		t.Run(demo, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-demo", demo)
			cmd.Env = append(os.Environ(), "CKTRACE_MAIN=1")
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("cktrace -demo %s: %v", demo, err)
			}
			golden := filepath.Join("testdata", demo+".golden")
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
				t.Fatalf("cktrace -demo %s diverged from %s:\ngot:\n%s\nwant:\n%s", demo, golden, got, want)
			}
		})
	}
}
