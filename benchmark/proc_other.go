//go:build !linux

package main

import "time"

// Off Linux the benchmark still builds and runs, without process
// accounting: CPU time and RSS read 0 and the filesystem is not named.
func cpuTime() time.Duration                { return 0 }
func peakRSSMB() float64                    { return 0 }
func fsType(string) (name string, mem bool) { return "unknown", false }
