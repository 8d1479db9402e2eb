//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask (1024 CPUs, the kernel's default size).
type cpuSet [16]uint64

func (s *cpuSet) add(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func (s *cpuSet) list() []int {
	var out []int
	for c := 0; c < len(s)*64; c++ {
		if s.has(c) {
			out = append(out, c)
		}
	}
	return out
}

func setOf(cpus []int) cpuSet {
	var s cpuSet
	for _, c := range cpus {
		s.add(c)
	}
	return s
}

func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return s, nil
}

func setAffinity(tid int, s cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	s, err := getAffinity(0)
	return s.list(), err
}

// pinSelf moves every thread of this process onto cpus. A thread inherits
// its creator's mask, so two passes over /proc/self/task leave no thread
// behind that was being created during the first.
func pinSelf(cpus []int) error {
	mask := setOf(cpus)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, mask); err != nil && pass == 1 {
				return err
			}
		}
	}
	return nil
}

// startPinned starts cmd with its affinity set to cpus: the child inherits
// the mask of the thread that forks it, so this thread takes the mask for the
// duration of the fork and then takes its own back.
func startPinned(cmd *exec.Cmd, cpus []int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity(0)
	if err != nil {
		return err
	}
	if err := setAffinity(0, setOf(cpus)); err != nil {
		return err
	}
	startErr := cmd.Start()
	if err := setAffinity(0, old); err != nil {
		return err
	}
	return startErr
}

// sleepUntil blocks the calling thread until t with nanosleep(2). time.Sleep
// would park the goroutine on Go's timer heap, and an idle netpoller wakes
// for timers in whole milliseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}

// procSample is one reading of a process's counters.
type procSample struct {
	cpu        time.Duration // utime+stime
	syscr      uint64
	syscw      uint64
	wchar      uint64
	ctxSwitch  uint64 // voluntary+involuntary, all threads
	vmHWMBytes uint64
}

func (a procSample) sub(b procSample) procSample {
	return procSample{
		cpu:       a.cpu - b.cpu,
		syscr:     a.syscr - b.syscr,
		syscw:     a.syscw - b.syscw,
		wchar:     a.wchar - b.wchar,
		ctxSwitch: a.ctxSwitch - b.ctxSwitch,
	}
}

func (a procSample) add(b procSample) procSample {
	return procSample{
		cpu:        a.cpu + b.cpu,
		syscr:      a.syscr + b.syscr,
		syscw:      a.syscw + b.syscw,
		wchar:      a.wchar + b.wchar,
		ctxSwitch:  a.ctxSwitch + b.ctxSwitch,
		vmHWMBytes: a.vmHWMBytes + b.vmHWMBytes,
	}
}

// cpuTime is the time the threads of a process have spent on a CPU, summed
// from /proc/<pid>/task/*/schedstat: the scheduler's own nanosecond clock.
// utime+stime of /proc/<pid>/stat are charged a whole 10 ms tick at a time
// to whoever runs when the tick fires, which for a server that runs 30 µs
// at a time is a sample, not a measurement; they are the fallback on a kernel
// without schedstat.
func cpuTime(pid int) (time.Duration, error) {
	dir := "/proc/" + strconv.Itoa(pid)
	tasks, err := os.ReadDir(dir + "/task")
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/task/" + t.Name() + "/schedstat")
		if os.IsNotExist(err) {
			if _, gone := os.Stat(dir + "/task/" + t.Name()); gone != nil {
				continue // thread exited between ReadDir and here
			}
			return tickTime(dir)
		}
		if f := strings.Fields(string(b)); err == nil && len(f) > 0 {
			ns, _ := strconv.ParseUint(f[0], 10, 64)
			sum += ns
		}
	}
	return time.Duration(sum), nil
}

// tickTime reads utime+stime from <dir>/stat, in USER_HZ ticks of 10 ms (100
// on every Linux ABI Go supports).
func tickTime(dir string) (time.Duration, error) {
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return 0, err
	}
	// utime and stime are the 14th and 15th fields of the line, the 12th and
	// 13th after the parenthesised command name.
	i := strings.LastIndexByte(string(stat), ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("%s/stat: unexpected format", dir)
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// sampleProc reads /proc/<pid>/{stat,io,status,task/*/status}.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	dir := "/proc/" + strconv.Itoa(pid)
	var err error
	if s.cpu, err = cpuTime(pid); err != nil {
		return s, err
	}

	io, err := os.ReadFile(dir + "/io")
	if err != nil {
		return s, err
	}
	s.syscr = fieldOf(string(io), "syscr:")
	s.syscw = fieldOf(string(io), "syscw:")
	s.wchar = fieldOf(string(io), "wchar:")

	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	s.vmHWMBytes = fieldOf(string(status), "VmHWM:") << 10

	tasks, err := os.ReadDir(dir + "/task")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		ts, err := os.ReadFile(dir + "/task/" + t.Name() + "/status")
		if err != nil {
			continue // thread exited between ReadDir and here
		}
		s.ctxSwitch += fieldOf(string(ts), "voluntary_ctxt_switches:") +
			fieldOf(string(ts), "nonvoluntary_ctxt_switches:")
	}
	return s, nil
}

// selfWchar is this process's cumulative bytes passed to write(2)-family calls.
func selfWchar() uint64 {
	io, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	return fieldOf(string(io), "wchar:")
}

// fieldOf returns the first number after "\nkey" (or a leading key) in a
// /proc key-value file, 0 when the key is missing.
func fieldOf(text, key string) uint64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			v, _ := strconv.ParseUint(f[0], 10, 64)
			return v
		}
	}
	return 0
}

// hostCalib times a fixed single-thread integer loop. It is taken at the
// start and end of every run: a run on a host that drifted shows it here.
func hostCalib() time.Duration {
	start := time.Now()
	h := uint64(14695981039346656037)
	for i := uint64(0); i < 20_000_000; i++ {
		h = (h ^ i) * 1099511628211
	}
	calibSink = h
	return time.Since(start)
}

var calibSink uint64
