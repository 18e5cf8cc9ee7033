package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one rayschedd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, readable after done
}

// startDaemon starts rayschedd with its default configuration on a free
// loopback port. Its output is discarded; the access log it writes at the
// default level is part of the request path being measured.
func startDaemon(bin string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("find a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rayschedd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("rayschedd exited during start: %v", d.err)
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("rayschedd: /healthz did not answer in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop reads the daemon's peak resident set size in MB, then sends
// SIGTERM and waits for the graceful drain (SIGKILL after 20 s).
func (d *daemon) stop() float64 {
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		logf("%v", err)
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	return rss
}

// cpuSeconds reads the daemon's user+system CPU time so far from
// /proc/<pid>/stat (clock ticks of 1/100 s, the Linux USER_HZ).
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read daemon cpu time: %w", err)
	}
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("read daemon cpu time: short /proc stat line")
	}
	var ticks float64
	for _, f := range fields[11:13] { // utime, stime
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, fmt.Errorf("read daemon cpu time: %w", err)
		}
		ticks += v
	}
	return ticks / 100, nil
}

// dieWithParent asks the kernel to kill a child if the benchmark dies
// first, so a killed run leaves no daemon behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// peakRSSMB reads a running process's peak resident set size (VmHWM) in
// MB. The rusage of an exited child is no use here: its maxrss also counts
// the parent's resident set at the moment the child was forked, so it
// would report the benchmark's own memory whenever that is the larger.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("read peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("read peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("read peak rss: no VmHWM for pid %d", pid)
}

// cpuSecondsOf returns an exited process's user+system CPU time.
func cpuSecondsOf(ps *os.ProcessState) float64 {
	return (ps.UserTime() + ps.SystemTime()).Seconds()
}
