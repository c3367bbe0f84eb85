package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/PID/stat; 100 on every Linux platform Go supports.
const clockTicks = 100

// syncBuf collects a child's combined output for address discovery and
// error reports.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one launched system process.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  syncBuf
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// startProc launches bin with args; its output is kept in memory.
func startProc(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it after
// the grace period. It reports an exit that was not clean.
func (p *proc) stop(grace time.Duration) error {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	}
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s did not exit within %v of SIGTERM", p.name, grace)
	}
	if p.err != nil {
		return fmt.Errorf("%s: %v\n%s", p.name, p.err, tail(p.out.String(), 2000))
	}
	return nil
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// waitOutput waits until the process output matches re and returns the
// first submatch.
func (p *proc) waitOutput(re *regexp.Regexp, deadline time.Time) (string, error) {
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(p.out.String()); m != nil {
			return m[1], nil
		}
		if p.exited() {
			return "", fmt.Errorf("%s exited early: %v\n%s", p.name, p.err, tail(p.out.String(), 2000))
		}
		time.Sleep(time.Millisecond)
	}
	return "", fmt.Errorf("%s: no %q in output:\n%s", p.name, re, tail(p.out.String(), 2000))
}

// cpuSeconds is the process's user plus system CPU so far.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %s", p.name)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// system is one launched topology: its processes in launch order.
type system struct {
	procs []*proc
}

func (s *system) add(p *proc) { s.procs = append(s.procs, p) }

// stopAll stops every process, reporting the first unclean exit.
func (s *system) stopAll() error {
	var first error
	for i := len(s.procs) - 1; i >= 0; i-- {
		if err := s.procs[i].stop(20 * time.Second); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// cpuSeconds sums the CPU of every process.
func (s *system) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range s.procs {
		c, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// peakRSSMB sums the processes' peak RSS.
func (s *system) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range s.procs {
		m, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// freePorts reserves n distinct ephemeral localhost ports for daemon
// flags. All n are held open together, so no two are the same; they are
// released before the daemons bind them (see launch for that race).
func freePorts(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		out[i] = ln.Addr().String()
	}
	return out, nil
}

// maxConnsPerHost caps the generator's connections to any one daemon. At
// the benchmark's rates a daemon has about one request in flight on
// average (Little's law: 500 requests/s x ~1ms), so the cap is never what
// limits the load, while a stalled daemon cannot make the generator open
// an unbounded number of sockets.
const maxConnsPerHost = 16

// newClient is the generator's HTTP client.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 20 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConnsPerHost,
			MaxIdleConnsPerHost: maxConnsPerHost,
			DisableCompression:  true,
		},
	}
}

// get fetches url and returns the body of a 2xx response.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return body, nil
}

func getJSON(c *http.Client, url string, v any) error {
	body, err := get(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// waitHealthy polls url until it answers 2xx with a body starting with
// want. The prefix tells the daemon apart from another process that took
// its reserved port and answers every path (an lbd backend does).
func waitHealthy(c *http.Client, url, want string, p *proc, deadline time.Time) error {
	for {
		body, err := get(c, url)
		if err == nil && !strings.HasPrefix(string(body), want) {
			err = fmt.Errorf("%s answered %q, not %s's health check", url, tail(string(body), 80), p.name)
		}
		if err == nil {
			return nil
		}
		if p != nil && p.exited() {
			return fmt.Errorf("%s exited early: %v\n%s", p.name, p.err, tail(p.out.String(), 2000))
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// launch starts a topology and returns it with its launch-to-healthy
// time. Daemon ports are reserved before the daemons bind them, so another
// socket can take one in between; such a launch is retried with fresh
// ports.
func launch(start func() (*system, error)) (*system, float64, error) {
	for attempt := 1; ; attempt++ {
		t0 := time.Now()
		sys, err := start()
		if err == nil {
			return sys, time.Since(t0).Seconds(), nil
		}
		if attempt == 3 || !strings.Contains(err.Error(), "address already in use") {
			return nil, 0, err
		}
	}
}

// gcCPUFraction reads GCCPUFraction from a daemon's expvar memstats.
func gcCPUFraction(c *http.Client, debugAddr string) (float64, error) {
	var vars struct {
		Memstats struct {
			GCCPUFraction float64
		} `json:"memstats"`
	}
	if err := getJSON(c, "http://"+debugAddr+"/debug/vars", &vars); err != nil {
		return 0, err
	}
	return vars.Memstats.GCCPUFraction, nil
}

// runDir makes a fresh subdirectory of the work directory.
func runDir(e *env, name string) (string, error) {
	d := filepath.Join(e.work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
