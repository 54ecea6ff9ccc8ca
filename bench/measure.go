package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times an untraced run builds its set-up; setup_s is
// the median, so one slow build does not move it.
const setupRuns = 7

// setUp builds a workload's set-up: setupRuns times in an untraced run,
// recording setup_s and releasing every build but the last; once, inside a
// "setup" span, in a traced run. It returns the build and the span id.
// Every build starts from a collected heap.
func setUp[T any](r *run, build func(tr *tracer, parent int) (T, error), release func(T)) (T, int, error) {
	if r.cfg.trace {
		root := r.tr.begin(0, "setup", "")
		v, err := build(r.tr, root)
		r.tr.end(root, nil)
		return v, root, err
	}
	runs := setupRuns
	if r.cfg.short {
		runs = 1
	}
	var v T
	var times []float64
	for i := range runs {
		if i > 0 && release != nil {
			release(v)
		}
		runtime.GC()
		start := time.Now()
		var err error
		if v, err = build(nil, 0); err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", median(times), len(times))
	return v, 0, nil
}

// measure runs pass(0), pass(1), ... until the run's seconds are spent: a
// pass starts only while one more of the last pass's length still fits, and
// at least minPasses run. Every pass starts from a collected heap, so
// garbage left by the one before neither slows it nor raises its peak, and
// each pass's peak resident set size is recorded for peak_rss_mb.
func (r *run) measure(minPasses int, pass func(i int) error) error {
	start := time.Now()
	last := 0.0
	for i := 0; ; i++ {
		if i >= minPasses && time.Since(start).Seconds()+last > r.cfg.seconds {
			return nil
		}
		runtime.GC()
		t := time.Now()
		stop := sampleRSS()
		err := pass(i)
		r.peaks = append(r.peaks, stop())
		if err != nil {
			return err
		}
		last = time.Since(t).Seconds()
	}
}

// rssInterval is how often sampleRSS reads the resident set size.
const rssInterval = 5 * time.Millisecond

// sampleRSS samples the process's resident set size until the returned stop
// function is called, which returns the largest sample in MiB. Sampling
// each pass and taking the median over passes keeps peak_rss_mb from
// resting on whichever pass happened to meet a late garbage collection.
func sampleRSS() (stop func() float64) {
	quit := make(chan struct{})
	peak := make(chan float64)
	go func() {
		top := rssMiB()
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				top = max(top, rssMiB())
			case <-quit:
				peak <- max(top, rssMiB())
				return
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-peak
	}
}

// rssMiB reads the resident set size from /proc/self/statm (0 elsewhere).
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
