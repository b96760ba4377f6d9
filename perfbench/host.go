package main

import (
	"syscall"
	"time"
)

// cpuSeconds returns the user+system CPU time this process has consumed
// since it started, across all of its threads (GC workers included).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// wallNow reads the host clock. It is the harness's only wall-clock read:
// the benchmark measures the simulator from outside, so host time is its
// subject, and no simulated output depends on the value.
func wallNow() time.Time {
	//mklint:ignore nowalltime the benchmark harness times the simulator from outside; no simulated output reads this value
	return time.Now()
}
