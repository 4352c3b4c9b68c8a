// Command perfbench is the repository benchmark: it drives the 100k-member
// scale trial at shard widths 1 and 2 and the standing sweep family,
// checks every run's simulated outputs against runner.RunScenario /
// runner.RunSweeps and the recorded reference, and prints end-to-end
// metrics (untraced) or per-module metrics (traced) as one JSON line.
//
// Run it through run.py, which builds this package from the checkout:
//
//	python3 perfbench/run.py --workload xl100k-serial --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options) (*outcome, error){
	"xl100k-serial": func(o options) (*outcome, error) { return runXL(o, 1) },
	"xl100k-shard2": func(o options) (*outcome, error) { return runXL(o, 2) },
	"sweep-default": runSweep,
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	traceDir string
	commit   string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	table             *moduleTable
	trace             any // written to the trace directory when traced
}

func (o *outcome) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// check records one checked unit of work; diffs non-empty marks it failed.
func (o *outcome) check(what string, diffs []string) {
	o.attempted++
	if len(diffs) > 0 {
		o.failed++
		for _, d := range diffs {
			o.failures = append(o.failures, what+": "+d)
		}
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		o     options
		trace int
		seed  int64
	)
	flag.StringVar(&o.workload, "workload", "", "workload name: xl100k-serial, xl100k-shard2 or sweep-default")
	flag.Int64Var(&seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement time per run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-module metrics")
	flag.StringVar(&o.traceDir, "trace-dir", "", "directory the traced run writes its spans to (empty: none)")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision recorded in the host block")
	record := flag.String("record", "", "write reference.json for the seed range FROM-TO instead of measuring")
	flag.Parse()
	if *record != "" {
		var from, to uint64
		if _, err := fmt.Sscanf(*record, "%d-%d", &from, &to); err != nil || to < from {
			fmt.Fprintf(os.Stderr, "perfbench: -record wants FROM-TO, got %q\n", *record)
			return 2
		}
		if err := recordReference(from, to, "reference.json"); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || seed < 0 || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seed %d, seconds %v)\n",
			o.workload, trace, seed, o.seconds)
		return 2
	}
	o.seed, o.traced = uint64(seed), trace == 1
	// Each workload runs with at most the two threads of a 2-core host.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	h := hostBlock(o)
	hostLine, _ := json.Marshal(map[string]any{"host": h}) // plain strings and numbers: cannot fail
	fmt.Println(string(hostLine))

	out, err := fn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH %s\n", f)
	}
	if out.table != nil {
		out.table.print(os.Stdout)
	}
	if o.traced && o.traceDir != "" && out.trace != nil {
		if err := writeTrace(o, h, out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// host describes where a result was measured.
type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Shards     int    `json:"shards"`
	Workers    int    `json:"workers,omitempty"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
}

func hostBlock(o options) host {
	h := host{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards: 1, Commit: o.commit, Workload: o.workload, Seed: o.seed, Traced: o.traced,
	}
	switch o.workload {
	case "xl100k-shard2":
		h.Shards = 2
	case "sweep-default":
		h.Workers = sweepWorkers
	}
	return h
}

func writeTrace(o options, h host, out *outcome) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(map[string]any{"host": h, "trace": out.trace, "metrics": out.metrics}, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s/%s-seed%d.json", o.traceDir, o.workload, o.seed)
	return os.WriteFile(name, append(blob, '\n'), 0o644)
}

// median returns the middle value (mean of the middle two) of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}
