package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat of %d: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// utime and stime are fields 14 and 15 of the whole line, 12 and 13
	// after the name.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat of %d: short", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat of %d: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS reads a process's VmHWM from /proc/<pid>/status, in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM of %d: not found", pid)
}

// resetPeakRSS restarts a process's VmHWM from its current RSS, so the
// next peakRSS covers only what follows.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// selfCPU is this process's user+system CPU time, at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// environment prints the environment audit line.
func environment(rep *report, c config, daemonMode string) {
	rep.info("env nproc=%d gomaxprocs=%d go=%s fs=%s daemon=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(c.workdir), daemonMode)
}

// schedLatencies reads the Go scheduler's histogram of how long
// goroutines waited to run once runnable.
func schedLatencies() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// waitsOver counts the scheduling waits longer than limit between two
// readings of schedLatencies, and all of them.
func waitsOver(before, after *metrics.Float64Histogram, limit time.Duration) (over, total uint64) {
	if before == nil || after == nil {
		return 0, 0
	}
	for i, n := range after.Counts {
		d := n - before.Counts[i]
		total += d
		if after.Buckets[i] >= limit.Seconds() {
			over += d
		}
	}
	return over, total
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// ticks stolen by the hypervisor and all ticks.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, s := range f[1:] {
		n, _ := strconv.ParseInt(s, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealMeter measures the share of the machine's CPU time the
// hypervisor gave to other guests over an interval.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := cpuTicks()
	return ratio(float64(s-m.steal), float64(t-m.total))
}
