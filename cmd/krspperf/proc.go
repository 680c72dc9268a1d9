package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// residentMB reads a process's resident set size in MB from /proc.
func residentMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/%d/statm: %q", pid, b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/%d/statm: %w", pid, err)
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}

// rssSampler samples the summed resident set of some processes every
// 100 ms. The median of the samples is the memory the work holds while it
// runs; it repeats from run to run where a peak, set by one unlucky
// moment of the garbage collector, does not.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func sampleRSS(pids []int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sum := func() {
		total := 0.0
		for _, pid := range pids {
			if mb, err := residentMB(pid); err == nil {
				total += mb
			}
		}
		s.samples = append(s.samples, total)
	}
	sum()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				sum()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median sample in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.samples)
}
