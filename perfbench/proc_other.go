//go:build !linux

package main

import (
	"os"
	"syscall"
)

func childProcAttr() *syscall.SysProcAttr { return nil }

// maxRSSMB is unavailable off Linux; peak_rss_mb reads 0 there.
func maxRSSMB(*os.ProcessState) float64 { return 0 }
