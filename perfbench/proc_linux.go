package main

import (
	"os"
	"syscall"
)

// childProcAttr kills a child if the benchmark itself dies, so no child
// outlives its run.
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// maxRSSMB is an exited process's peak resident memory, in MiB.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}
