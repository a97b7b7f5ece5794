package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine a benchmark run shares with other tenants changes speed over
// minutes: the same predicts cost half again as much CPU time for a while,
// then recover (README.md, Noise). Throughout a run a speedometer therefore
// times a fixed kernel of this package's own on a CPU-time clock, and every
// end-to-end time is reported as it would read on a machine where the
// kernel takes referenceMS: measured × referenceMS ÷ the kernel's median
// time over the measured interval. The kernel never calls into the program
// under test and runs in a child process, so the program's heap and garbage
// collector cannot move it, and it is small enough that load on the other
// CPU does not either; a slow phase of the host moves both it and the
// measured times, and cancels. A change to the program moves a normalized
// time exactly as it moves the measured one.

// speedEnv, set in a child's environment, makes the process a speedometer
// instead of the benchmark.
const speedEnv = "PERF_SPEEDOMETER"

// referenceMS is the normalization target: about the kernel's time on the
// calibration machine (2-vCPU Xeon VM, Go 1.24) in a quiet phase.
const referenceMS = 3.0

// speedPeriod is how often the child times the kernel.
const speedPeriod = 200 * time.Millisecond

// speedKernel is one fixed unit of work: SHA-256 rounds over a 4 KiB buffer
// for the compute, then map inserts, small slice allocations and a sort for
// the allocation and memory traffic of Go serving code. Each half alone
// tracks the host's slow phases less closely than the two together.
func speedKernel(buf []byte) int {
	for i := 0; i < 400; i++ {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	r := rand.New(rand.NewSource(1))
	m := map[int][]float64{}
	for i := 0; i < 6000; i++ {
		m[r.Intn(2000)] = make([]float64, 8)
	}
	xs := make([]float64, 1<<13)
	for i := range xs {
		xs[i] = r.Float64()
	}
	sort.Float64s(xs)
	return len(m)
}

// speedometerMain is the child's side: every speedPeriod it times the kernel
// on the process CPU-time clock and prints the time in milliseconds, one a
// line, until its standard input closes (the parent stopped or died).
func speedometerMain(in io.Reader, out io.Writer) int {
	quit := make(chan struct{})
	go func() {
		io.Copy(io.Discard, in)
		close(quit)
	}()
	buf := make([]byte, 4096)
	w := bufio.NewWriter(out)
	tick := time.NewTicker(speedPeriod)
	defer tick.Stop()
	for {
		start := processCPU()
		speedKernel(buf)
		fmt.Fprintf(w, "%.4f\n", ms(processCPU()-start))
		if err := w.Flush(); err != nil {
			return 0
		}
		select {
		case <-quit:
			return 0
		case <-tick.C:
		}
	}
}

// speedSample is one line of the child's output, stamped on arrival.
type speedSample struct {
	at time.Time
	ms float64
}

// speedometer owns the child process and the samples it reported.
type speedometer struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	done  chan struct{} // closed when the reader has seen the child's EOF

	mu      sync.Mutex
	samples []speedSample
}

// startSpeedometer starts the child: this same executable, on one CPU.
func startSpeedometer() (*speedometer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &speedometer{cmd: exec.Command(exe), done: make(chan struct{})}
	s.cmd.Env = append(os.Environ(), speedEnv+"=1", "GOMAXPROCS=1")
	s.cmd.Stderr = os.Stderr
	if s.stdin, err = s.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("speedometer: %w", err)
	}
	go s.read(stdout)
	return s, nil
}

func (s *speedometer) read(r io.Reader) {
	defer close(s.done)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		v, err := strconv.ParseFloat(strings.TrimSpace(sc.Text()), 64)
		if err != nil {
			continue
		}
		s.mu.Lock()
		s.samples = append(s.samples, speedSample{time.Now(), v})
		s.mu.Unlock()
	}
}

// stop ends the child and waits for it and the reader.
func (s *speedometer) stop() {
	s.stdin.Close()
	<-s.done
	s.cmd.Wait()
}

// slowdown is how much slower than referenceMS the kernel ran between from
// and to: the median of the samples taken then over referenceMS. With no
// sample in the interval it uses them all, and with none at all it is 1.
func (s *speedometer) slowdown(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var in, all []float64
	for _, x := range s.samples {
		all = append(all, x.ms)
		if !x.at.Before(from) && !x.at.After(to) {
			in = append(in, x.ms)
		}
	}
	if len(in) == 0 {
		in = all
	}
	if len(in) == 0 {
		return 1
	}
	return median(in) / referenceMS
}

// processCPU reads the process's CPU-time clock.
func processCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// The hypervisor also stops this machine's vCPUs outright now and then, for
// a fraction of a second up to minutes, while other tenants run. A CPU-time
// clock does not see that, but every latency in flight stretches by it, in
// a way no factor undoes, and a whole run reads a quarter slower. A
// stealMonitor therefore reads the machine's steal counter every stealPeriod
// during a timed window, and requests in flight during a period in which at
// least stealTicks ticks were stolen (or within backlogGrace after it, while
// the backlog drains) are left out of the latency metrics (README.md, Noise).
const (
	stealPeriod  = 100 * time.Millisecond
	stealTicks   = 2 // of the 20 a 100 ms period has on 2 CPUs at 100 Hz
	backlogGrace = 250 * time.Millisecond
)

type stealMonitor struct {
	quit, done chan struct{}
	// Written by the sampler until done is closed, read after.
	stolen         []time.Time // start of every period with stealTicks or more stolen
	steal0, total0 float64
}

func startStealMonitor() *stealMonitor {
	m := &stealMonitor{quit: make(chan struct{}), done: make(chan struct{})}
	m.steal0, m.total0 = readSteal()
	go m.run()
	return m
}

func (m *stealMonitor) run() {
	defer close(m.done)
	tick := time.NewTicker(stealPeriod)
	defer tick.Stop()
	prevAt, prev := time.Now(), m.steal0
	for {
		select {
		case <-m.quit:
			return
		case now := <-tick.C:
			steal, _ := readSteal()
			if steal-prev >= stealTicks {
				m.stolen = append(m.stolen, prevAt)
			}
			prevAt, prev = now, steal
		}
	}
}

// stop ends the sampling and returns the share of the machine's CPU time
// stolen since the start, in percent.
func (m *stealMonitor) stop() float64 {
	close(m.quit)
	<-m.done
	steal, total := readSteal()
	return 100 * ratio(steal-m.steal0, total-m.total0)
}

// overlaps reports whether [from, to] meets a stolen period or the
// backlogGrace after one. Valid after stop.
func (m *stealMonitor) overlaps(from, to time.Time) bool {
	for _, at := range m.stolen {
		if !to.Before(at) && !from.After(at.Add(stealPeriod+backlogGrace)) {
			return true
		}
	}
	return false
}

// readSteal reads the machine's cumulative stolen CPU time and its total
// CPU time, in clock ticks, from the first line of /proc/stat; zeros where
// it cannot.
func readSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user through steal; guest time is inside user
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}
