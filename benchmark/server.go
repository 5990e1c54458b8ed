package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps everything it writes, relative to
// the repository root: the stagesvc binary, generated inputs, trace output.
const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the directory holding the
// datastaging module, so the benchmark runs from the root (go run) and from
// its own directory (go test) alike.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			bytes.HasPrefix(b, []byte("module datastaging\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside the datastaging module (no go.mod found)")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/stagesvc from the checkout's source into the
// build directory and returns the binary's path.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "stagesvc")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/stagesvc")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/stagesvc: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one running stagesvc child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	out    *lineWatcher
	setupS float64    // exec -> first 200 on /healthz
	exited chan error // receives cmd.Wait's result once
}

var listenLine = regexp.MustCompile(`listening on (http://[^/\s]+)/`)

// lineWatcher collects the child's output and hands over the listen address
// once the service has printed it.
type lineWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // receives the base URL once
	sent bool
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := listenLine.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *lineWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// serverProcs is the GOMAXPROCS the service runs with: every CPU but the one
// the single-P generator needs. Sharing a CPU with the generator doubles
// the decision tail and cpu_ms_per_req on the 2-vCPU reference box and makes
// both unrepeatable.
func serverProcs() int { return max(1, runtime.NumCPU()-1) }

// startTimeout bounds exec -> healthy; stopTimeout bounds SIGTERM -> exit
// (stagesvc's own drain budget is 10 s).
const (
	startTimeout = 20 * time.Second
	stopTimeout  = 20 * time.Second
)

// startServer execs stagesvc with the benchmark's fixed flags plus extra and
// returns once /healthz answers 200.
func startServer(bin, scenarioFile string, extra ...string) (*server, error) {
	args := append([]string{
		"-addr", "127.0.0.1:0", "-in", scenarioFile, "-time-scale", strconv.Itoa(timeScale),
	}, extra...)
	s := &server{
		cmd:    exec.Command(bin, args...),
		out:    &lineWatcher{addr: make(chan string, 1)},
		exited: make(chan error, 1),
	}
	s.cmd.Stdout = s.out
	s.cmd.Stderr = s.out
	s.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs()))
	begin := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	fail := func(err error) (*server, error) {
		_ = s.cmd.Process.Kill()
		<-s.exited
		return nil, fmt.Errorf("stagesvc %s: %w\n%s", strings.Join(args, " "), err, s.out)
	}
	select {
	case s.base = <-s.out.addr:
	case err := <-s.exited:
		return nil, fmt.Errorf("stagesvc exited before listening: %v\n%s", err, s.out)
	case <-time.After(startTimeout):
		return fail(errors.New("no listen address within the start timeout"))
	}
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(begin) > startTimeout {
			return fail(errors.New("/healthz not 200 within the start timeout"))
		}
		time.Sleep(time.Millisecond)
	}
	s.setupS = time.Since(begin).Seconds()
	return s, nil
}

// stop sends SIGTERM and waits for the graceful drain; a clean service
// exits 0. A service that outlives the stop timeout is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("stagesvc exit after SIGTERM: %w\n%s", err, s.out)
		}
		return nil
	case <-time.After(stopTimeout):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("stagesvc did not exit within the stop timeout after SIGTERM; killed")
	}
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat CPU times;
// 100 on every Linux the Go toolchain targets.
const clockTicksPerSecond = 100

// procCPUSeconds reads a process's user+system CPU time.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The comm field may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no comm field")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("proc stat: short line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: non-numeric CPU fields")
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// hostSteal reads the machine-wide CPU counters: the ticks the hypervisor
// gave to other guests while this one wanted to run, and all ticks.
func hostSteal() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostSteal(string(b))
}

// parseHostSteal reads the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal ...
func parseHostSteal(stat string) (steal, total float64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("proc stat: no aggregate cpu line")
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, 0, errors.New("proc stat: non-numeric cpu line")
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// stealMeter measures the share of the machine's CPU time stolen between
// start and share: on a shared VM it explains a run whose every timing
// reads high.
type stealMeter struct{ steal, total float64 }

func startStealMeter() stealMeter {
	s, t, _ := hostSteal() // a host without the counters reads 0 throughout
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t, _ := hostSteal()
	return ratio(s-m.steal, t-m.total)
}

// resetPeakRSS returns freed heap to the OS and restarts this process's
// VmHWM from its current resident set. Best effort: where clear_refs is not
// writable the peak simply keeps counting from the process's start.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
