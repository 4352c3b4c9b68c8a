package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/wire"
)

// moduleRow is one module's share of a traced run.
type moduleRow struct {
	Module string
	Calls  int64
	TotalS float64
	SelfS  float64
}

// moduleTable is the traced run's per-module breakdown. Rows' self times
// sum to RunS; Outside rows (set-up phases, overlapping runtime work) are
// listed for reference and excluded from that sum.
type moduleTable struct {
	Workload  string
	RunS      float64
	Basis     string
	OverheadS float64
	Rows      []moduleRow
	Outside   []moduleRow
}

func (t *moduleTable) print(w io.Writer) {
	fmt.Fprintf(w, "\nmodule table: %s (traced run_s %.4f s; times in %s)\n\n", t.Workload, t.RunS, t.Basis)
	fmt.Fprintln(w, "| module | calls | total s | self s | share of run_s |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|")
	var sum float64
	for _, r := range t.Rows {
		sum += r.SelfS
		fmt.Fprintf(w, "| %s | %d | %.4f | %.4f | %.1f%% |\n", r.Module, r.Calls, r.TotalS, r.SelfS, 100*ratio(r.SelfS, t.RunS))
	}
	fmt.Fprintf(w, "| **sum of self** | | | %.4f | %.1f%% |\n", sum, 100*ratio(sum, t.RunS))
	for _, r := range t.Outside {
		fmt.Fprintf(w, "| %s | %d | %.4f | %.4f | (not in sum) |\n", r.Module, r.Calls, r.TotalS, r.SelfS)
	}
	fmt.Fprintf(w, "| tracing overhead (traced − untraced run_s) | | | %.4f | %.1f%% |\n\n", t.OverheadS, 100*ratio(t.OverheadS, t.RunS))
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "_s."):
		return "s"
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	case strings.HasSuffix(name, "ratio") || strings.HasSuffix(name, "_frac") ||
		strings.HasSuffix(name, "imbalance") || strings.HasSuffix(name, "per_request"):
		return "ratio"
	}
	return "count"
}

func evictReasons() []string {
	var rs []string
	for r := core.EvictIdle; r <= core.EvictPressure; r++ {
		rs = append(rs, r.String())
	}
	return rs
}

// setNetsimZero reports the per-call netsim metrics a workload cannot
// observe as zero.
func setNetsimZero(out *outcome) {
	for ty := 1; ty < wire.TypeCount; ty++ {
		name := wire.Type(ty).String()
		for _, k := range []string{"sent", "delivered", "dropped"} {
			out.set("netsim."+k+"."+name, 0, "count")
		}
	}
	for _, k := range []string{"netsim.loss_calls", "netsim.loss_s", "netsim.latency_calls",
		"netsim.latency_s", "netsim.cross_shard_packets"} {
		out.set(k, 0, unitOf(k))
	}
}

// setExpZero reports the sweep-only metrics as zero on a single trial.
func setExpZero(out *outcome) {
	for _, k := range []string{"exp.trials", "exp.trial_s.p50", "exp.trial_s.p98",
		"exp.trial_s.sum.rrmp", "exp.trial_s.sum.rmtp", "exp.worker_busy_frac", "rmtp.trials"} {
		out.set(k, 0, unitOf(k))
	}
}

func setRuntime(out *outcome, rt runtimeCounters, heapPeak float64) {
	out.set("runtime.alloc_bytes", rt.allocBytes, "bytes")
	out.set("runtime.alloc_objects", rt.allocObjects, "count")
	out.set("runtime.gc_cycles", rt.gcCycles, "count")
	out.set("runtime.gc_cpu_s", rt.gcCPUSeconds, "s")
	out.set("runtime.heap_peak_bytes", heapPeak, "bytes")
}
