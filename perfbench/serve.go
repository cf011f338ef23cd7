package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fnpr/internal/obs"
)

// server is one running `serve` process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	dir  string
	// stderrDone closes once the stderr drain goroutine has returned.
	stderrDone chan struct{}
	exited     bool
}

// startServer starts serve with the result cache and, when durable, a
// fresh durable job store under dir, and returns once /readyz answers 200.
// The returned duration is setup_s: process start to the first 200 from
// /readyz.
func startServer(bin, dir string, durable bool) (*server, time.Duration, error) {
	start := time.Now()
	args := []string{"-addr", "127.0.0.1:0", "-cache"}
	if durable {
		args = append(args, "-data-dir", dir)
	}
	cmd := exec.Command(bin, args...)
	// The server must not outlive the harness, even if the harness dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting serve: %w", err)
	}
	s := &server{cmd: cmd, dir: dir, stderrDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.stderrDone)
		sc := bufio.NewScanner(stderr)
		const marker = "listening on http://"
		found := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 && !found {
				found = true
				addrCh <- line[i+len(marker):]
			} else if !strings.HasPrefix(line, "serve: ") {
				fmt.Fprintln(os.Stderr, "serve:", line)
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case addr := <-addrCh:
		s.base = "http://" + addr
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, 0, errors.New("serve did not report its address within 30s")
	}
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.kill()
			return nil, 0, errors.New("serve not ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM (serve exits 0 after a clean drain),
// waits for it and removes its data dir.
func (s *server) stop() error {
	if s.exited {
		return nil
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		err = fmt.Errorf("serve did not drain within 30s: %v", <-done)
	}
	s.exited = true
	<-s.stderrDone
	os.RemoveAll(s.dir)
	if err != nil {
		return fmt.Errorf("serve exit: %w", err)
	}
	return nil
}

// kill is the error-path teardown: SIGKILL, wait, remove the data dir.
func (s *server) kill() {
	if s == nil || s.exited {
		return
	}
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.exited = true
	<-s.stderrDone
	os.RemoveAll(s.dir)
}

// sample is a point-in-time reading of the server's own counters
// (/debug/vars) and of its /proc entry.
type sample struct {
	vars     obs.Snapshot
	mem      memStats
	cpuTicks int64 // utime + stime, in clock ticks
	hwmKB    int64 // VmHWM
}

// memStats is the subset of runtime.MemStats that /debug/vars publishes
// under "memstats" and the runtime.* metrics use.
type memStats struct {
	Mallocs      uint64
	TotalAlloc   uint64
	NumGC        uint32
	PauseTotalNs uint64
}

func (s *server) sample() (sample, error) {
	var out sample
	var vars struct {
		Fnpr     *obs.Snapshot `json:"fnpr"`
		MemStats *memStats     `json:"memstats"`
	}
	if err := getJSON(http.DefaultClient, s.base+"/debug/vars", &vars); err != nil {
		return out, fmt.Errorf("/debug/vars: %w", err)
	}
	if vars.Fnpr == nil || vars.MemStats == nil {
		return out, errors.New(`/debug/vars lacks "fnpr" or "memstats"`)
	}
	out.vars, out.mem = *vars.Fnpr, *vars.MemStats
	pid := s.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return out, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 13 {
		return out, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return out, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	out.cpuTicks = ut + st
	out.hwmKB, err = statusKB(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:")
	return out, err
}

// watchRSS samples the server's VmRSS (kB) every 10ms until the returned
// stop function is called, which returns the samples.
func (s *server) watchRSS() (stop func() []float64) {
	done := make(chan struct{})
	result := make(chan []float64, 1)
	path := fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid)
	go func() {
		var samples []float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				result <- samples
				return
			case <-tick.C:
				if kb, err := statusKB(path, "VmRSS:"); err == nil {
					samples = append(samples, float64(kb))
				}
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-result
	}
}

// cpuSteal reads the machine-wide steal and total jiffies from /proc/stat.
func cpuSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// statusKB reads one "Name:  N kB" field of a /proc status file.
func statusKB(path, field string) (int64, error) {
	status, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, field)
}

// getJSON GETs url and decodes a 200 response into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
