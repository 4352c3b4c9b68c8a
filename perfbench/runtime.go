package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// settle collects garbage, returns freed memory to the OS and resets the
// process's peak-RSS mark, so the next peakRSSMB reading covers only the
// work that follows.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux);
	// elsewhere peakRSSMB falls back to the runtime's own figure.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set since the last settle,
// in MiB.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil && kb > 0 {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runtimeCounters are the Go runtime's cumulative allocation and GC figures.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPUSeconds                       float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{allocBytes: v(0), allocObjects: v(1), gcCycles: v(2), gcCPUSeconds: v(3)}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: c.allocBytes - o.allocBytes, allocObjects: c.allocObjects - o.allocObjects,
		gcCycles: c.gcCycles - o.gcCycles, gcCPUSeconds: c.gcCPUSeconds - o.gcCPUSeconds,
	}
}

// heapSampler polls the live heap size until stopped and keeps its peak.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the peak heap bytes.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak)
}
