package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	startTimeout = 20 * time.Second // exec → "listening on" line
	stopTimeout  = 20 * time.Second // SIGTERM → exit
	// clockTick is the kernel's USER_HZ, the unit of utime/stime in
	// /proc/<pid>/stat; it is 100 on every Linux architecture Go runs on.
	clockTick = 100
)

// proc is one server child process. Its stderr goes to a per-workload
// log file kept for post-mortems; its stdout is only read for the
// documented "listening on HOST:PORT" line.
type proc struct {
	name    string
	cmd     *exec.Cmd
	addr    string
	logPath string
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// children is every child process now alive and the signal that ends
// it, so that a signal to the benchmark does not orphan a server that
// would then skew whatever runs next on the machine. Servers are
// killed; a generator child gets SIGTERM and kills its own servers.
var children = struct {
	sync.Mutex
	live map[*os.Process]syscall.Signal
}{live: map[*os.Process]syscall.Signal{}}

func trackChild(p *os.Process, endWith syscall.Signal) {
	children.Lock()
	children.live[p] = endWith
	children.Unlock()
}

func untrackChild(p *os.Process) {
	children.Lock()
	delete(children.live, p)
	children.Unlock()
}

// endChildrenOnSignal makes SIGINT and SIGTERM end every live child
// before the benchmark itself exits with status 1.
func endChildrenOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		children.Lock()
		for p, endWith := range children.live {
			_ = p.Signal(endWith)
		}
		children.Unlock()
		fmt.Fprintf(os.Stderr, "benchmark: %v: children ended\n", sig)
		os.Exit(1)
	}()
}

// startProc execs bin and waits for its address line. Pass the listen
// flag as 127.0.0.1:0 so the kernel picks the port.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child keeps its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	trackChild(cmd.Process, syscall.SIGKILL)

	addrCh := make(chan string, 1) // one send, so the reader never blocks on us
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addrCh <- strings.TrimSpace(rest)
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained until the child exits
		p.waitErr = cmd.Wait()
		untrackChild(cmd.Process)
		close(p.exited)
	}()

	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening (%v); see %s", name, p.waitErr, logPath)
	case <-time.After(startTimeout):
		p.kill()
		return nil, fmt.Errorf("%s printed no address within %v; see %s", name, startTimeout, logPath)
	}
}

// stop asks for a graceful drain and requires one: the process must
// exit on SIGTERM within stopTimeout and have logged "drained
// cleanly". Anything else kills it and is an error, which fails the
// workload.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("%s: SIGTERM: %w", p.name, err)
	}
	select {
	case <-p.exited:
	case <-time.After(stopTimeout):
		p.kill()
		return fmt.Errorf("%s still running %v after SIGTERM; killed, see %s", p.name, stopTimeout, p.logPath)
	}
	if p.waitErr != nil {
		return fmt.Errorf("%s: %w; see %s", p.name, p.waitErr, p.logPath)
	}
	log, err := os.ReadFile(p.logPath)
	if err != nil {
		return err
	}
	if !bytes.Contains(log, []byte("drained cleanly")) {
		return fmt.Errorf("%s exited without logging a clean drain; see %s", p.name, p.logPath)
	}
	return nil
}

// kill is the last resort; it returns once the process has ended.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// cpuSeconds reads the process's user+system CPU time so far.
func (p *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are
	// well-defined again after its closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("%s: malformed /proc stat", p.name)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(fields[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: malformed /proc stat times", p.name)
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPUSeconds is this process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// freeLoopbackAddr picks a currently free loopback port for a flag
// that cannot take port 0 (-metrics-addr prints no resolved address).
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// servers is the server side of one served workload: one asrserve, or
// an asrrouter in front of two. addr is where clients dial.
type servers struct {
	procs       []*proc // backends first, router (if any) last
	router      *proc
	addr        string
	metricsAddr []string // one per backend, when started traced
}

// startServers brings the workload's topology up. Server knobs stay at
// their CLI defaults: a better default must show as a gain. traced
// adds -metrics-addr, which switches internal/obs on in the child.
func startServers(w workload, sz sizing, binDir, modelPath, outDir, tag string, traced bool) (*servers, error) {
	s := &servers{}
	backends := 1
	if w.Fleet {
		backends = 2
	}
	for b := 0; b < backends; b++ {
		args := []string{
			"-scale", sz.Scale.Name, "-model", modelPath, "-store", w.Store,
			"-backend", w.Backend, "-addr", "127.0.0.1:0",
		}
		if traced {
			maddr, err := freeLoopbackAddr()
			if err != nil {
				s.killAll()
				return nil, err
			}
			args = append(args, "-metrics-addr", maddr)
			s.metricsAddr = append(s.metricsAddr, maddr)
		}
		name := fmt.Sprintf("%s-%s-asrserve%d", w.Name, tag, b)
		p, err := startProc(name, filepath.Join(binDir, "asrserve"), args, filepath.Join(outDir, name+".log"))
		if err != nil {
			s.killAll()
			return nil, err
		}
		s.procs = append(s.procs, p)
	}
	s.addr = s.procs[0].addr
	if w.Fleet {
		name := fmt.Sprintf("%s-%s-asrrouter", w.Name, tag)
		args := []string{"-addr", "127.0.0.1:0", "-backends", s.procs[0].addr + "," + s.procs[1].addr}
		p, err := startProc(name, filepath.Join(binDir, "asrrouter"), args, filepath.Join(outDir, name+".log"))
		if err != nil {
			s.killAll()
			return nil, err
		}
		s.procs = append(s.procs, p)
		s.router = p
		s.addr = p.addr
	}
	return s, nil
}

// stop drains the router first so no session is cut off mid-splice.
func (s *servers) stop() error {
	var first error
	for i := len(s.procs) - 1; i >= 0; i-- {
		if err := s.procs[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *servers) killAll() {
	for _, p := range s.procs {
		p.kill()
	}
}

// cpuSeconds sums CPU time over every server-side process.
func (s *servers) cpuSeconds() (float64, error) {
	var total float64
	for _, p := range s.procs {
		c, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// peakRSSMB sums the resident-set high-water marks.
func (s *servers) peakRSSMB() (float64, error) {
	var total float64
	for _, p := range s.procs {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}
