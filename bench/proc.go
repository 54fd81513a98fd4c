package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The networked workloads run the system under test in subprocesses: the
// benchmark binary re-executes itself with "-role node" or "-role
// router", so generator and system have separate heaps and schedulers. A
// subprocess reports "READY <addr>" on stdout, then answers one JSON
// line on stdout per JSON line on stdin, and exits when stdin closes —
// so even a generator killed outright leaves nothing running.

type proc struct {
	name string
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
	done chan struct{} // closed when the process has been reaped
}

// procTable tracks every live subprocess and scratch directory so that
// each exit path — normal return, failed verification, SIGINT — stops
// and removes them.
var procTable struct {
	mu    sync.Mutex
	procs map[*proc]struct{}
	dirs  map[string]struct{}
}

func init() {
	procTable.procs = make(map[*proc]struct{})
	procTable.dirs = make(map[string]struct{})
}

// handleSignals makes SIGINT and SIGTERM clean up before exiting.
func handleSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		cleanupAll()
		os.Exit(130)
	}()
}

// cleanupAll kills every live subprocess, waits for it, and removes
// every scratch directory.
func cleanupAll() {
	procTable.mu.Lock()
	procs := make([]*proc, 0, len(procTable.procs))
	for p := range procTable.procs {
		procs = append(procs, p)
	}
	dirs := make([]string, 0, len(procTable.dirs))
	for d := range procTable.dirs {
		dirs = append(dirs, d)
	}
	procTable.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		removeScratch(d)
	}
}

// liveProcs reports how many subprocesses have not been reaped (the
// smoke test requires zero after a run).
func liveProcs() int {
	procTable.mu.Lock()
	defer procTable.mu.Unlock()
	return len(procTable.procs)
}

// scratchDir makes a directory for one run's stores. It lives under
// $ODE_BENCH_TMP when the wrapper script sets it (inside the checkout),
// else under the system temp directory.
func scratchDir() (string, error) {
	base := os.Getenv("ODE_BENCH_TMP")
	if base != "" {
		if err := os.MkdirAll(base, 0o755); err != nil {
			return "", err
		}
	}
	d, err := os.MkdirTemp(base, "odebench-")
	if err != nil {
		return "", err
	}
	procTable.mu.Lock()
	procTable.dirs[d] = struct{}{}
	procTable.mu.Unlock()
	return d, nil
}

func removeScratch(d string) {
	os.RemoveAll(d)
	procTable.mu.Lock()
	delete(procTable.dirs, d)
	procTable.mu.Unlock()
}

// startProc launches a role subprocess and waits for its READY line.
func startProc(name string, args ...string) (*proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{"-role"}, args...)...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<20), done: make(chan struct{})}
	procTable.mu.Lock()
	procTable.procs[p] = struct{}{}
	procTable.mu.Unlock()
	line, err := p.readLine(10 * time.Second)
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("%s: waiting for READY: %w", name, err)
	}
	addr, ok := strings.CutPrefix(line, "READY ")
	if !ok {
		p.kill()
		return nil, fmt.Errorf("%s: want READY, got %q", name, line)
	}
	p.addr = addr
	return p, nil
}

func (p *proc) readLine(timeout time.Duration) (string, error) {
	type res struct {
		line string
		err  error
	}
	ch := make(chan res, 1) // the reader may outlive a timeout
	go func() {
		line, err := p.out.ReadString('\n')
		ch <- res{strings.TrimRight(line, "\n"), err}
	}()
	select {
	case r := <-ch:
		return r.line, r.err
	case <-time.After(timeout):
		return "", errors.New("timed out")
	}
}

// call sends one control message and decodes the one-line reply.
func (p *proc) call(msg ctlMsg, reply any) error {
	line, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	if _, err := p.in.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("%s: %s: %w", p.name, msg.Cmd, err)
	}
	resp, err := p.readLine(30 * time.Second)
	if err != nil {
		return fmt.Errorf("%s: %s: %w", p.name, msg.Cmd, err)
	}
	var env struct {
		Err string `json:"err"`
	}
	if err := json.Unmarshal([]byte(resp), &env); err != nil {
		return fmt.Errorf("%s: %s: bad reply %.80q: %w", p.name, msg.Cmd, resp, err)
	}
	if env.Err != "" {
		return fmt.Errorf("%s: %s: %s", p.name, msg.Cmd, env.Err)
	}
	if reply != nil {
		return json.Unmarshal([]byte(resp), reply)
	}
	return nil
}

// stop asks the process to exit (closing stdin is the request), waits
// briefly, and kills it if it lingers.
func (p *proc) stop() {
	p.in.Close()
	p.reap(3 * time.Second)
}

func (p *proc) kill() {
	p.cmd.Process.Kill()
	p.reap(3 * time.Second)
}

func (p *proc) reap(grace time.Duration) {
	procTable.mu.Lock()
	_, live := procTable.procs[p]
	delete(procTable.procs, p)
	procTable.mu.Unlock()
	if !live {
		<-p.done
		return
	}
	waited := make(chan struct{})
	go func() { p.cmd.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(grace):
		p.cmd.Process.Kill()
		<-waited
	}
	close(p.done)
}
