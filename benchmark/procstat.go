package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports; reading it
// properly needs sysconf(3), which needs cgo.
const clockTick = 100

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the command", pid, len(f))
	}
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/%d/stat utime: %w", pid, err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/%d/stat stime: %w", pid, err)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// peakRSSMB returns a process's VmHWM, its peak resident set, in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}
