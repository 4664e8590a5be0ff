package main

import (
	"fmt"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsType names the filesystem holding dir; tmpfs and ramfs are memory,
// where an fsync costs nothing.
func fsType(dir string) (name string, memory bool) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown", false
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", true
	case 0x858458f6:
		return "ramfs", true
	case 0xef53:
		return "ext2/3/4", false
	case 0x58465342:
		return "xfs", false
	case 0x9123683e:
		return "btrfs", false
	case 0x794c7630:
		return "overlayfs", false
	}
	return fmt.Sprintf("0x%x", uint32(st.Type)), false
}
