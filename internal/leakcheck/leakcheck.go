// Package leakcheck lets a test assert that the simulation it ran left
// no goroutine behind: every parked coroutine is a goroutine until its
// machine is closed, so a leak shows up as a goroutine count that does
// not come back down.
package leakcheck

import (
	"runtime"
	"testing"
)

// maxPolls bounds Wait: a goroutine that has been released only has to
// be scheduled once to exit, which takes a handful of polls.
const maxPolls = 1 << 22

// Wait returns once at most base goroutines are running, and fails t if
// the count is still above base after maxPolls polls. It polls with
// runtime.Gosched and never sleeps.
func Wait(t testing.TB, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == maxPolls {
			t.Fatalf("%d goroutines still running, want at most %d: a simulation left goroutines behind", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}
