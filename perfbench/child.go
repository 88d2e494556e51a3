package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// children tracks every server process the benchmark has started and
// not yet reaped, so a signal or a failed run can stop them all.
var children struct {
	sync.Mutex
	live map[*server]bool
}

// server is one pslserver child process listening on a loopback port.
type server struct {
	cmd  *exec.Cmd
	addr string        // host:port
	done chan struct{} // closed once the process is reaped
}

var announceRE = regexp.MustCompile(`on http://([0-9.]+:[0-9]+)`)

// startServer spawns bin on an ephemeral loopback port and returns once
// /healthz answers 200, with the time that took. The child dies with
// the benchmark (Pdeathsig) even if the benchmark is killed outright.
func startServer(ctx context.Context, bin string, args ...string) (*server, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*server]bool)
	}
	children.live[s] = true
	children.Unlock()

	addrc := make(chan string, 1)
	go func() {
		// Reading stdout to EOF keeps the child from blocking on a full
		// pipe; EOF arrives when it exits, before Wait is called.
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if m := announceRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		if !sent {
			close(addrc)
		}
		_ = cmd.Wait() // a stopped server exits by signal; only reaping matters
		close(s.done)
	}()

	select {
	case addr, ok := <-addrc:
		if !ok {
			s.stop()
			return nil, 0, fmt.Errorf("%s exited before announcing its address", bin)
		}
		s.addr = addr
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, errors.New("pslserver did not announce its address within 60s")
	case <-ctx.Done():
		s.stop()
		return nil, 0, ctx.Err()
	}
	// The listener is bound before the announce line, so this request
	// waits in the accept queue until the server starts serving.
	for {
		code, _, err := s.get(ctx, "/healthz")
		if err == nil && code == http.StatusOK {
			return s, time.Since(t0), nil
		}
		if time.Since(t0) > 60*time.Second || ctx.Err() != nil {
			s.stop()
			return nil, 0, fmt.Errorf("healthz never answered 200 (last status %d, err %v)", code, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

var plainClient = &http.Client{Timeout: 10 * time.Second}

// get fetches a path from the server with the standard client (used
// only outside measured phases).
func (s *server) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.addr+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := plainClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// stop sends SIGTERM, waits up to five seconds for a graceful exit,
// then kills the process, and always waits for it to be reaped.
func (s *server) stop() {
	if s == nil {
		return
	}
	children.Lock()
	delete(children.live, s)
	children.Unlock()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// stopAllServers reaps every child still running.
func stopAllServers() {
	children.Lock()
	live := make([]*server, 0, len(children.live))
	for s := range children.live {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		s.stop()
	}
}

// liveServers reports how many children are not yet reaped.
func liveServers() int {
	children.Lock()
	defer children.Unlock()
	return len(children.live)
}

// counters is a reading of the server's free counters: its /metrics
// families and its kernel accounting in /proc.
type counters struct {
	metrics map[string]float64 // "name{labels}" -> value
	cpuTick int64              // utime+stime in clock ticks
}

// readCounters scrapes /metrics and /proc/<pid>/stat.
func (s *server) readCounters(ctx context.Context) (counters, error) {
	code, body, err := s.get(ctx, "/metrics")
	if err != nil {
		return counters{}, err
	}
	if code != http.StatusOK {
		return counters{}, fmt.Errorf("/metrics answered %d", code)
	}
	samples, err := obs.ReadSamples(bytes.NewReader(body))
	if err != nil {
		return counters{}, err
	}
	c := counters{metrics: make(map[string]float64, len(samples))}
	for _, sm := range samples {
		key := sm.Name
		if sm.Labels != "" {
			key += "{" + sm.Labels + "}"
		}
		c.metrics[key] = sm.Value
	}
	c.cpuTick, err = procCPUTicks(s.cmd.Process.Pid)
	return c, err
}

// procCPUTicks reads utime+stime of a process from /proc/<pid>/stat.
func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields
	// after it are space separated, utime and stime are the 12th and
	// 13th of them.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad cpu fields in /proc stat")
	}
	return u + st, nil
}

// clockTick is the kernel's USER_HZ, fixed at 100 on Linux.
const clockTick = 100

// peakRSSMB reads VmHWM, the peak resident set, of a process in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostCPU reads the host-wide CPU ticks from /proc/stat: the ticks the
// hypervisor stole from this machine's CPUs, and all ticks.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of host CPU ticks stolen between two readings.
func stealShare(s0, t0, s1, t1 int64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}
