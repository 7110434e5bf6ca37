package main

import (
	"bufio"
	"errors"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// summary is a metric's distribution over the samples of one run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Pct is the highest whole percentile with at least ten samples
	// beyond it, and PctValue its value; both are absent below 11
	// samples.
	Pct      int      `json:"pct,omitempty"`
	PctValue *float64 `json:"pct_value,omitempty"`
	N        int      `json:"n"`
}

// quantile interpolates linearly between closest ranks, matching
// Python's statistics.quantiles(method="exclusive") for the quartiles.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n+1)
	lo := int(math.Floor(pos))
	switch {
	case lo < 1:
		return sorted[0]
	case lo >= n:
		return sorted[n-1]
	}
	return sorted[lo-1] + (pos-float64(lo))*(sorted[lo]-sorted[lo-1])
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	if n := len(s); n%2 == 1 {
		out.Median = s[n/2]
	} else {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if len(s) >= 11 {
		out.Pct = int(math.Floor(100 * (1 - 10/float64(len(s)))))
		v := quantile(s, float64(out.Pct)/100)
		out.PctValue = &v
	}
	return out
}

// processCPU is the process's user plus system CPU time in nanoseconds,
// every thread included (the Go runtime's GC workers too).
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// resetPeakRSS restarts the kernel's peak-resident-set counter, so the
// peak read later covers only what runs after the reset.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns VmHWM, the peak resident set size, in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb << 10, nil
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// cpuTimes reads the host's aggregate CPU counters: steal and total
// jiffies. Steal is time the hypervisor ran someone else while this
// host's vCPUs wanted to run.
func cpuTimes() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
