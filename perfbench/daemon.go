package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lantern/internal/service"
)

// daemon is one lanternd child process listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // the process's exit status, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches lanternd with args and waits until /v1/healthz
// answers, returning the time from launch until then.
func startDaemon(ctx context.Context, bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting lanternd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(150 * time.Second)
	for {
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("lanternd exited before becoming healthy (%v); log in %s", d.err, logPath)
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("lanternd did not become healthy in time")
		}
	}
}

// stop sends SIGTERM, escalates to SIGKILL after ten seconds, and returns
// once the process has exited.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) stats() (*service.Stats, error) {
	resp, err := http.Get(d.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &st, nil
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}
