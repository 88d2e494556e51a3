package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// gone reports whether no process with this pid exists any more (it
// was reaped, not merely killed).
func gone(pid int) bool {
	return errors.Is(syscall.Kill(pid, 0), syscall.ESRCH)
}

// TestChildReapedWhenSetupFails starts a stand-in server that announces
// an address but never answers, gives up through the context (the path
// an interrupt takes), and checks the child was stopped and reaped.
func TestChildReapedWhenSetupFails(t *testing.T) {
	dir := t.TempDir()
	pidFile := filepath.Join(dir, "pid")
	script := filepath.Join(dir, "fake-server")
	body := "#!/bin/sh\necho $$ > " + pidFile + "\necho 'pslserver: serving v0001 on http://127.0.0.1:9/ (fake)'\nexec sleep 60\n"
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, _, err := startServer(ctx, script); err == nil {
		t.Fatal("startServer succeeded against a server that never answers")
	}
	raw, err := os.ReadFile(pidFile)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !gone(pid) || liveServers() != 0 {
		t.Fatalf("child %d still exists (gone=%v) or still tracked (%d live)", pid, gone(pid), liveServers())
	}
}

// TestChildReapedAfterFailedRun drives a real pslserver with answers
// that cannot match, so every operation fails, then stops all children
// the way main does and checks the server process is gone.
func TestChildReapedAfterFailedRun(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "pslserver")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/pslserver").CombinedOutput(); err != nil {
		t.Fatalf("building pslserver: %v\n%s", err, out)
	}
	in, err := newLookupInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.expect {
		in.expect[i] = []byte(`{"wrong":true}`)
	}
	srv, _, err := startServer(context.Background(), bin)
	if err != nil {
		t.Fatal(err)
	}
	pid := srv.cmd.Process.Pid
	r := closedLoop(context.Background(), srv.addr, lookupOps{in: in}, 300*time.Millisecond, make([]int64, serveConns), nil)
	if r.attempted == 0 || r.failed != r.attempted || r.firstErr == nil {
		t.Fatalf("attempted %d, failed %d, first error %v; want every operation failed", r.attempted, r.failed, r.firstErr)
	}
	stopAllServers()
	if !gone(pid) || liveServers() != 0 {
		t.Fatalf("server %d still exists (gone=%v) or still tracked (%d live)", pid, gone(pid), liveServers())
	}
}
