package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host is the metadata every result file carries, so a number is never
// read without the machine and the moment it was taken on.
type Host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	LoadBefore float64 `json:"loadavg1_before"`
	LoadAfter  float64 `json:"loadavg1_after"`
}

func hostInfo(root string) Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		LoadBefore: loadavg1(),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A benchmark checkout need not be a git repository; "unknown" then.
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// loadavg1 is the 1-minute load average, or -1 when the host has none.
func loadavg1() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// childRun is one finished child process.
type childRun struct {
	Wall, CPU float64 // seconds: exec → exit with stdout drained; user+sys from rusage
	Sys       float64 // the system part of CPU
	RSSMB     float64 // ru_maxrss: the child's peak resident set
	MinFlt    int64   // page faults served without I/O
	Stdout    []byte
	Stderr    []byte
	Err       error // non-nil on a non-zero exit or a failed start
}

// runChild runs one binary to completion and measures it from outside.
func runChild(bin string, args ...string) childRun {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r := childRun{Wall: time.Since(t0).Seconds(), Stdout: stdout.Bytes(), Stderr: stderr.Bytes()}
	if err != nil {
		r.Err = fmt.Errorf("%s %s: %w\n%s", bin, strings.Join(args, " "), err, lastLines(stderr.String(), 5))
	}
	if ps := cmd.ProcessState; ps != nil {
		r.CPU = (ps.UserTime() + ps.SystemTime()).Seconds()
		r.Sys = ps.SystemTime().Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
			r.MinFlt = ru.Minflt
		}
	}
	return r
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU returns the user+sys CPU seconds a live process has used.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	return (utime + stime) / clockTick, nil
}

// procRSSMB returns a live process's resident set now (VmRSS) and its
// high-water mark (VmHWM).
func procRSSMB(pid int) (now, peak float64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		key, rest, _ := strings.Cut(line, ":")
		if key != "VmRSS" && key != "VmHWM" {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, 0, err
		}
		if key == "VmRSS" {
			now = kb / 1024
		} else {
			peak = kb / 1024
		}
	}
	if now == 0 || peak == 0 {
		return 0, 0, fmt.Errorf("no VmRSS/VmHWM in /proc/%d/status", pid)
	}
	return now, peak, nil
}
