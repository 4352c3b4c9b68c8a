// Command rrmp-sim runs simulated RRMP scenarios and prints metrics:
// topology, workload, loss, churn, crash faults, partitions and policy
// are all flags. The scenario flags fill one exp.Scenario, and every mode
// runs that scenario's cells through the same kernel (runner.RunScenario),
// so one flag set names one cell in every mode, and a single trial with
// -seed s prints exactly RunScenario(cell, s).
//
// One scenario, one trial: prints the cell name and its sorted metrics.
//
//	rrmp-sim -regions 100 -msgs 50 -loss 0.2
//	rrmp-sim -regions 50,50,50 -msgs 20 -loss 0.1 -policy fixed -hold 500ms
//	rrmp-sim -regions 100 -msgs 10 -loss 0.3 -c 12 -seed 7 -trace
//	rrmp-sim -regions 100 -loss 0.2 -crash 1 -crash-recover 500ms
//	rrmp-sim -regions 50,50 -partition-at 1s -partition-for 2s
//
// Multi-trial statistics for one scenario (mean / stddev / 95% CI across
// independently seeded trials, run on a bounded worker pool):
//
//	rrmp-sim -regions 100 -loss 0.2 -trials 16 -parallel 8
//
// A full scenario sweep (regions × loss × churn × crash × partition ×
// policy matrix; -sweep-* flags override the default matrix, and the
// scenario flags fill every cell's remaining fields), with the JSON report
// also written to -out for machine tracking:
//
//	rrmp-sim -sweep -trials 8 -parallel 4 -json
//	rrmp-sim -sweep -sweep-crashes 0,2 -sweep-partitions 0,1s -trials 4
//	rrmp-sim -sweep -sweep-payloads 512,2048 -budget 16384 -trials 4
//
// Byte-accurate buffer accounting: -payload/-payload-model set the
// per-message payload size (model: fixed|uniform|lognormal), -budget caps
// each member's buffer in bytes with deterministic pressure eviction, and
// engaged cells report buffer_integral_bytesec / peak_buffered_bytes /
// pressure_evictions / budget_denials.
//
// The protocol axis runs the same cells under the RMTP repair-server
// baseline (-protocol rmtp for one cell, -sweep-protocols rrmp,rmtp for a
// matrix; rmtp families append after all rrmp cells and report the
// nak_*/ack_* counters instead of RRMP's request/search/handoff keys):
//
//	rrmp-sim -protocol rmtp -regions 30,30 -loss 0.2
//	rrmp-sim -sweep -sweep-protocols rrmp,rmtp -trials 8
//
// Multi-client workloads (-workload, a preset or a key=val spec) replace
// the single-sender publish stream with N concurrent publishers under
// per-client arrival processes, Zipf volume skew and optional VoD late
// joiners; -trace-record persists the materialized publish timeline as a
// canonical rrmp-trace/v1 file and -trace-replay drives a run from one
// (same cell and seed → byte-identical metrics). The default -sweep also
// appends the standing 18-cell workload family after the legacy matrix:
//
//	rrmp-sim -workload mc -regions 30,30 -loss 0.1 -loss-mode hash
//	rrmp-sim -workload vod -regions 12,12 -policy fixed
//	rrmp-sim -workload 'clients=4,msgs=32,arrival=poisson,gap=50ms,zipf=1.1'
//	rrmp-sim -workload mc -trace-record mc.trace
//	rrmp-sim -workload mc -trace-replay mc.trace
//
// Single-trial rrmp runs, workload cells included, stream protocol events
// to stderr with -trace and/or to a file with -trace-out (both flags
// reject sweep/multi-trial modes and the rmtp baseline loudly).
//
// Policies come from the central registry: -policy (and -sweep-policies)
// accept any registered kind or alias, optionally parameterized, and
// -list-policies prints the roster with parameter defaults. The default
// -sweep also appends the 6-cell adaptive-policy family after the
// workload family, and -fitness-weights ranks a sweep's cells by the
// weighted multi-objective fitness score (delivery up; byte-seconds,
// unrecoverables and recovery latency down) without touching the report:
//
//	rrmp-sim -list-policies
//	rrmp-sim -regions 30,30 -loss 0.2 -policy adaptive:tmin=20ms,tmax=200ms,target=2
//	rrmp-sim -sweep -trials 8 -fitness-weights delivery=1,bytesec=0.5
//
// The report is a pure function of (matrix, -trials, -seed): the same
// seeds produce byte-identical aggregates at any -parallel width.
//
// -cpuprofile and -memprofile write runtime/pprof CPU and allocation
// profiles of any mode, for `go tool pprof`:
//
//	rrmp-sim -tree 8,4,100000 -loss 0.05 -loss-mode hash -msgs 10 -horizon 2s -cpuprofile cpu.pprof
//	go tool pprof -top cpu.pprof
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// executionFlags choose how a run executes and where its output goes,
// never which cells it runs. Every other flag customizes the matrix, so
// the committed BENCH_sweep.json / BENCH_scale.json records are the
// default -out target only when none of those was given.
var executionFlags = map[string]bool{
	"trials": true, "parallel": true, "shards": true, "json": true, "out": true,
	"sweep": true, "sweep-scale": true, "list-policies": true, "fitness-weights": true,
	"trace": true, "trace-out": true, "trace-record": true, "trace-replay": true,
	"cpuprofile": true, "memprofile": true,
}

// runOpts are an invocation's settings outside the scenario: seed and
// trial count, output, and tracing.
type runOpts struct {
	seed     uint64
	trials   int
	parallel int
	jsonOut  bool
	outPath  string
	fitness  string
	// trace and traceOut send the single trial's protocol events to
	// stderr and/or a file; traceRecord and traceReplay bind its publish
	// timeline to an rrmp-trace/v1 file.
	trace       bool
	traceOut    string
	traceRecord string
	traceReplay string
	// cpuProfile and memProfile name runtime/pprof output files.
	cpuProfile string
	memProfile string
	stdout     io.Writer
	stderr     io.Writer
}

func (o runOpts) options() exp.Options {
	return exp.Options{Trials: o.trials, Parallel: o.parallel, BaseSeed: o.seed}
}

// realMain runs the command on args and returns its exit status: 0 on
// success, 1 when a run fails, 2 for a usage error.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rrmp-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sc := scenarioFlags(fs)
	o := runOpts{stdout: stdout, stderr: stderr}
	fs.Uint64Var(&o.seed, "seed", 1, "root random seed")
	fs.IntVar(&o.trials, "trials", 1, "independently seeded trials per scenario cell")
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool size for trials (0 = GOMAXPROCS)")
	fs.BoolVar(&o.jsonOut, "json", false, "print the sweep report as JSON instead of a table")
	fs.StringVar(&o.outPath, "out", "", "also write the sweep report JSON here (default BENCH_sweep.json for a default-matrix -sweep; empty = don't)")
	fs.StringVar(&o.fitness, "fitness-weights", "", "print a fitness-ranked cell table after a sweep: 'key=val,...' weights with keys delivery,bytesec,unrec,recovery ('default' = standing weights; never changes the report bytes)")
	fs.BoolVar(&o.trace, "trace", false, "stream protocol events to stderr (single-trial rrmp mode only)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write protocol events to this file instead of stderr (single-trial rrmp mode only)")
	fs.StringVar(&o.traceRecord, "trace-record", "", "write the materialized publish timeline to this file as rrmp-trace/v1 (single-trial -workload mode only)")
	fs.StringVar(&o.traceReplay, "trace-replay", "", "drive the run from a recorded rrmp-trace/v1 file instead of generating the timeline (single-trial -workload mode only)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (runtime/pprof)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile of the run to this file when it ends (runtime/pprof)")
	sweep := fs.Bool("sweep", false, "run the scenario matrix instead of a single scenario")
	sweepScale := fs.Bool("sweep-scale", false, "run the scale matrix (members×depth balanced trees) and record wall-clock + events/sec")
	axes := axisFlags(fs)
	listPolicies := fs.Bool("list-policies", false, "print the policy registry roster (kinds, aliases, parameters) and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *listPolicies {
		printPolicyRoster(stdout)
		return 0
	}

	set, customized := map[string]bool{}, false
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		customized = customized || !executionFlags[f.Name]
	})
	multi := *sweep || *sweepScale || o.trials > 1
	var usage string
	switch {
	// Tracing observes one deterministic run; a parallel sweep would
	// interleave members of many trials into the same stream.
	case (o.trace || o.traceOut != "") && multi:
		usage = "-trace/-trace-out apply to single-trial mode only"
	// Timeline traces bind one (workload, seed) pair to one file.
	case (o.traceRecord != "" || o.traceReplay != "") && multi:
		usage = "-trace-record/-trace-replay apply to single-trial mode only"
	case (o.traceRecord != "" || o.traceReplay != "") && sc.Workload == nil:
		usage = "-trace-record/-trace-replay require -workload (the spec names the cell the timeline belongs to)"
	case o.traceRecord != "" && o.traceReplay != "":
		usage = "choose one of -trace-record or -trace-replay"
	case sc.Workload != nil && *sweepScale:
		usage = "-workload does not apply to -sweep-scale"
	case o.fitness != "" && (*sweepScale || !(*sweep || o.trials > 1)):
		usage = "-fitness-weights scores sweep/multi-trial reports (use with -sweep or -trials > 1)"
	case set["out"] && o.outPath != "" && !multi:
		usage = "-out only applies with -sweep, -sweep-scale or -trials > 1"
	}
	if usage != "" {
		fmt.Fprintln(stderr, "rrmp-sim:", usage)
		return 2
	}
	// The committed records track the *default* matrices, so customized
	// matrices and ad-hoc multi-trial runs never clobber them.
	if !set["out"] && !customized {
		switch {
		case *sweepScale:
			o.outPath = "BENCH_scale.json"
		case *sweep:
			o.outPath = "BENCH_sweep.json"
		}
	}

	stopProfiles, err := startProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "rrmp-sim:", err)
		return 1
	}
	switch {
	case *sweepScale:
		err = runScale(o, sc.Shards, axes.Trees)
	case multi:
		err = runSweeps(o, sweepsFor(*sc, axes, *sweep, set["protocol"], *sweep && !customized)...)
	default:
		err = runSingle(o, *sc)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(stderr, "rrmp-sim:", err)
		return 1
	}
	return 0
}

// startProfiles opens the profile files that are set, so a bad path fails
// before the run, and starts the CPU profile. The returned stop ends it
// and writes the allocation profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, err
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			// The allocs profile counts every allocation since the
			// program started; the GC first makes its in-use figures
			// current.
			runtime.GC()
			errs = append(errs, pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}

// scenarioFlags registers the scenario flags on fs and returns the one
// scenario they fill. Every mode starts from it: a single trial runs it, a
// multi-trial run aggregates it, and -sweep uses it as the default
// matrix's Base.
func scenarioFlags(fs *flag.FlagSet) *exp.Scenario {
	sc := &exp.Scenario{Regions: []int{100}}
	fs.Func("regions", "comma-separated region sizes (chain hierarchy) (default 100)", func(s string) (err error) {
		sc.Regions, err = parseSizes(s)
		return err
	})
	fs.BoolVar(&sc.Star, "star", false, "attach all regions directly to the sender's region")
	fs.Func("tree", "balanced tree topology 'branch,levels,members' (overrides -regions)", func(s string) error {
		shape, err := parseTreeShape(s)
		sc.Tree = &shape
		return err
	})
	fs.IntVar(&sc.Msgs, "msgs", 20, "messages to publish")
	fs.DurationVar(&sc.Gap, "gap", 20*time.Millisecond, "inter-message gap")
	fs.Float64Var(&sc.Loss, "loss", 0.2, "independent DATA loss probability")
	fs.StringVar(&sc.LossMode, "loss-mode", "", "loss stream model: '' = legacy shared stream (serial-only), 'hash' = per-sender counter hash (shard-safe, runs parallel under -shards; combine with -burst for the shard-safe Gilbert-Elliott chain)")
	fs.BoolVar(&sc.Burst, "burst", false, "use a Gilbert-Elliott burst loss channel instead")
	fs.Float64Var(&sc.Churn, "churn", 0, "graceful leaves per second (Poisson over non-sender members)")
	fs.Float64Var(&sc.Crash, "crash", 0, "crash faults per second (Poisson over non-sender members; no handoff)")
	fs.DurationVar(&sc.CrashRecover, "crash-recover", 0, "downtime before a crashed member returns (0 = crash-stop)")
	fs.DurationVar(&sc.PartitionAt, "partition-at", 0, "instant to split the group into two halves (0 = never; with -sweep, when partition episodes begin)")
	fs.DurationVar(&sc.PartitionDur, "partition-for", 0, "partition duration before the heal event (0 = never heals)")
	fs.Float64Var(&sc.C, "c", 6, "expected long-term bufferers per region (C)")
	fs.Float64Var(&sc.Lambda, "lambda", 1, "expected remote requests per regional loss (lambda)")
	fs.IntVar(&sc.PayloadBytes, "payload", 0, "payload bytes per message (0 = the historic 256)")
	fs.Func("payload-model", "payload size model: fixed|uniform|lognormal (sizes drawn around -payload)", func(s string) error {
		sc.PayloadModel = s
		if s == "fixed" {
			sc.PayloadModel = "" // the historic default, so cell names keep their bytes
		}
		return nil
	})
	fs.IntVar(&sc.ByteBudget, "budget", 0, "per-member buffer byte budget (0 = unlimited)")
	fs.StringVar(&sc.Protocol, "protocol", "rrmp", "recovery protocol: rrmp (the paper's) or rmtp (tree repair-server baseline)")
	fs.StringVar(&sc.Policy, "policy", "two-phase", "buffering policy spec, e.g. two-phase, fixed:hold=200ms or adaptive:tmin=20ms,tmax=200ms,target=2 (rrmp only; rmtp cells always run the repair-server discipline; see -list-policies)")
	fs.DurationVar(&sc.FixedHold, "hold", 500*time.Millisecond, "retention for -policy fixed")
	fs.DurationVar(&sc.Horizon, "horizon", 5*time.Second, "virtual run time")
	fs.DurationVar(&sc.RepairBackoff, "backoff", 0, "regional repair multicast back-off window (0 = immediate)")
	fs.Func("workload", "multi-client publish workload: a preset (mc|bursty|vod) or 'key=val,...' with keys clients,msgs,arrival(constant|poisson|burst),gap,zipf,burst-len,burst-gap,window(from-to:factor),size-model(fixed|uniform|lognormal),size-mean,late-frac,late-at,late-spread", func(s string) (err error) {
		sc.Workload, err = parseWorkloadSpec(s)
		return err
	})
	fs.IntVar(&sc.Shards, "shards", 1, "region-sharded event loops per trial (1 = serial; aggregates are byte-identical at any width)")
	return sc
}

// axisFlags registers the -sweep-* matrix overrides on fs. A nil axis in
// the returned sweep means the flag was not given.
func axisFlags(fs *flag.FlagSet) *exp.Sweep {
	axes := &exp.Sweep{}
	fs.Func("sweep-regions", "region vectors to sweep, e.g. '50;100;50,50' (default 50;100;30,30)", func(s string) error {
		axes.Regions = nil
		for _, vec := range strings.Split(s, ";") {
			sizes, err := parseSizes(vec)
			if err != nil {
				return err
			}
			axes.Regions = append(axes.Regions, sizes)
		}
		return nil
	})
	fs.Func("sweep-losses", "loss rates to sweep, e.g. '0.05,0.2' (default 0.05,0.2)", func(s string) (err error) {
		axes.Losses, err = parseFloats(s)
		return err
	})
	fs.Func("sweep-churns", "churn rates to sweep, e.g. '0,1' (default 0,1)", func(s string) (err error) {
		axes.Churns, err = parseFloats(s)
		return err
	})
	fs.Func("sweep-crashes", "crash rates to sweep, e.g. '0,1' (default 0,1)", func(s string) (err error) {
		axes.Crashes, err = parseFloats(s)
		return err
	})
	fs.Func("sweep-partitions", "partition durations to sweep, e.g. '0,1s' (default 0,1s; 0 = no partition)", func(s string) (err error) {
		axes.Partitions, err = parseDurations(s)
		return err
	})
	fs.Func("sweep-policies", "policies to sweep, e.g. 'two-phase,fixed' (default two-phase,fixed)", func(s string) error {
		axes.Policies = nil
		for _, p := range strings.Split(s, ",") {
			axes.Policies = append(axes.Policies, strings.TrimSpace(p))
		}
		return nil
	})
	fs.Func("sweep-trees", "tree shapes to sweep as 'branch:levels:members;...' (adds tree cells to -sweep; overrides the -sweep-scale grid)", func(s string) (err error) {
		axes.Trees, err = parseTreeShapes(s)
		return err
	})
	fs.Func("sweep-payloads", "payload sizes to sweep, e.g. '0,1024' (default 0,1024; 0 = historic 256)", func(s string) (err error) {
		axes.PayloadSizes, err = parseInts(s)
		return err
	})
	fs.Func("sweep-budgets", "buffer byte budgets to sweep, e.g. '0,8192' (default 0,8192; 0 = unlimited)", func(s string) (err error) {
		axes.Budgets, err = parseInts(s)
		return err
	})
	fs.Func("sweep-protocols", "protocols to sweep, e.g. 'rrmp,rmtp' (default rrmp,rmtp; rmtp families append after all rrmp cells)", func(s string) error {
		axes.Protocols = nil
		for _, p := range strings.Split(s, ",") {
			p = strings.TrimSpace(p)
			// An empty token (a trailing comma) would otherwise normalize
			// to a second identical rrmp family instead of erroring.
			if p != "rrmp" && p != "rmtp" {
				return fmt.Errorf("unknown protocol %q (want rrmp or rmtp)", p)
			}
			axes.Protocols = append(axes.Protocols, p)
		}
		return nil
	})
	return axes
}

// sweepsFor returns the sweeps a multi-trial or -sweep run executes, all
// starting from sc. Without -sweep that is the one cell sc describes; with
// it, the default matrix under the -sweep-* overrides, plus — for the
// standing record — the workload and adaptive-policy families appended
// after it, so the record grows without a committed cell moving.
func sweepsFor(sc exp.Scenario, axes *exp.Sweep, sweep, protocolSet, standing bool) []exp.Sweep {
	sw := exp.Sweep{Base: sc}
	if sweep {
		sw = exp.DefaultSweep()
		sw.Base = sc
		sw.Regions = or(axes.Regions, sw.Regions)
		sw.Trees = or(axes.Trees, sw.Trees)
		sw.Losses = or(axes.Losses, sw.Losses)
		sw.Churns = or(axes.Churns, sw.Churns)
		sw.Crashes = or(axes.Crashes, sw.Crashes)
		sw.Partitions = or(axes.Partitions, sw.Partitions)
		sw.Policies = or(axes.Policies, sw.Policies)
	}
	// Byte and protocol axes: an explicit -sweep-* list wins; otherwise a
	// scalar -payload or -budget, or an explicit -protocol, pins its axis
	// to Base's one value — so `-sweep-payloads 512,2048 -budget 4096`
	// reads as a payload axis × one fixed budget, and "-sweep -protocol
	// rrmp" genuinely excludes the rmtp family.
	switch {
	case axes.PayloadSizes != nil:
		sw.PayloadSizes = axes.PayloadSizes
	case sc.PayloadBytes > 0:
		sw.PayloadSizes = nil
	}
	switch {
	case axes.Budgets != nil:
		sw.Budgets = axes.Budgets
	case sc.ByteBudget > 0:
		sw.Budgets = nil
	}
	switch {
	case axes.Protocols != nil:
		sw.Protocols = axes.Protocols
	case protocolSet:
		sw.Protocols = nil
	}
	sweeps := []exp.Sweep{sw}
	if standing {
		for _, family := range []exp.Sweep{exp.WorkloadSweep(), exp.AdaptiveSweep()} {
			family.Base.Shards = sc.Shards
			sweeps = append(sweeps, family)
		}
	}
	return sweeps
}

// or returns override when the flag set it, def otherwise.
func or[T any](override, def []T) []T {
	if override != nil {
		return override
	}
	return def
}

// runSingle runs one seeded trial of the scenario's cell through the
// kernel and prints the cell name and its sorted metrics.
func runSingle(o runOpts, sc exp.Scenario) error {
	sw := exp.Sweep{Base: sc}
	if err := sw.Validate(); err != nil {
		return err
	}
	cell := sw.Expand()[0]
	if note := runner.ExecNote(sw); note != "" {
		fmt.Fprintln(o.stderr, "rrmp-sim:", note)
	}
	var tl workload.Timeline
	if o.traceReplay != "" {
		f, err := os.Open(o.traceReplay)
		if err != nil {
			return fmt.Errorf("opening trace: %w", err)
		}
		tl, err = workload.Replay(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("replaying %s: %w", o.traceReplay, err)
		}
		if tl == nil {
			tl = workload.Timeline{} // an empty trace replays as no publishes
		}
	}
	tracer, closeTrace, err := o.tracer()
	if err != nil {
		return err
	}
	m, err := runner.RunScenarioTimeline(cell, o.seed, tl, tracer)
	// Close the trace file explicitly so a failed flush (full disk, ...)
	// surfaces as an error instead of an exit-0 truncated trace.
	if cerr := closeTrace(); err == nil && cerr != nil {
		err = fmt.Errorf("closing trace output: %w", cerr)
	}
	if err != nil {
		return err
	}
	if o.traceRecord != "" {
		if err := recordTimeline(o, cell); err != nil {
			return err
		}
	}
	fmt.Fprintf(o.stdout, "cell: %s (seed %d)\n", cell.Name(), o.seed)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(o.stdout, "  %-28s %g\n", k, m[k])
	}
	return nil
}

// tracer opens the -trace/-trace-out sinks (both at once fan out to
// both). The returned close flushes the file sink.
func (o runOpts) tracer() (trace.Tracer, func() error, error) {
	var sinks []io.Writer
	closeFn := func() error { return nil }
	if o.trace {
		sinks = append(sinks, o.stderr)
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return nil, nil, fmt.Errorf("opening trace output: %w", err)
		}
		sinks = append(sinks, f)
		closeFn = f.Close
	}
	if len(sinks) == 0 {
		return nil, closeFn, nil
	}
	return &trace.Writer{W: io.MultiWriter(sinks...)}, closeFn, nil
}

// recordTimeline writes the cell's materialized publish timeline to
// -trace-record as rrmp-trace/v1.
func recordTimeline(o runOpts, cell exp.Scenario) error {
	tl, _, err := runner.TimelineFor(cell, o.seed)
	if err != nil {
		return err
	}
	f, err := os.Create(o.traceRecord)
	if err != nil {
		return fmt.Errorf("creating trace: %w", err)
	}
	if err := workload.Record(f, tl); err != nil {
		f.Close()
		return fmt.Errorf("recording trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace: %w", err)
	}
	fmt.Fprintf(o.stderr, "rrmp-sim: wrote %s (%d events, %d clients)\n", o.traceRecord, len(tl), tl.Clients())
	return nil
}

// runSweeps runs the sweeps' cells through one worker pool into one
// report and prints it.
func runSweeps(o runOpts, sweeps ...exp.Sweep) error {
	rep, err := runner.RunSweeps(o.options(), sweeps...)
	if err != nil {
		return err
	}
	if err := o.emit(rep, len(rep.Cells), rep.Trials, func(w io.Writer) { printReport(w, rep) }); err != nil {
		return err
	}
	if o.fitness != "" {
		return printFitness(o.stdout, rep, o.fitness)
	}
	return nil
}

// runScale runs the members×depth scale matrix at the given engine width,
// timing every cell, and writes the rrmp-scale/v1 report (BENCH_scale.json
// by default — the committed perf-trajectory record every PR
// regenerates). The default grid appends the XL rows (10k/100k members)
// and the 1M hash-burst row after the standing matrix; trees, when set,
// replace the whole grid instead.
func runScale(o runOpts, shards int, trees []exp.TreeShape) error {
	sweeps := []exp.Sweep{exp.ScaleSweep(), exp.ScaleSweepXL(), exp.ScaleSweep1M()}
	if trees != nil {
		sweeps = sweeps[:1]
		sweeps[0].Trees = trees
	}
	for i := range sweeps {
		sweeps[i].Base.Shards = shards
	}
	rep, err := runner.RunScale(o.options(), sweeps...)
	if err != nil {
		return err
	}
	return o.emit(rep, len(rep.Cells), rep.Trials, func(w io.Writer) { printScaleReport(w, rep) })
}

// emit prints a report — as JSON with -json, otherwise as the table —
// and writes its JSON to -out when set.
func (o runOpts) emit(rep any, cells, trials int, table func(io.Writer)) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if o.jsonOut {
		if _, err := o.stdout.Write(blob); err != nil {
			return err
		}
	} else {
		table(o.stdout)
	}
	if o.outPath != "" {
		if err := os.WriteFile(o.outPath, blob, 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		fmt.Fprintf(o.stderr, "rrmp-sim: wrote %s (%d cells × %d trials)\n", o.outPath, cells, trials)
	}
	return nil
}

// printPolicyRoster prints the policy registry in listing order: one line
// per kind with its aliases and summary, then one indented line per
// parameter with its default (the -policy / -sweep-policies grammar).
func printPolicyRoster(w io.Writer) {
	for _, info := range policy.Known() {
		name := info.Kind
		if len(info.Aliases) > 0 {
			name += " (" + strings.Join(info.Aliases, ", ") + ")"
		}
		fmt.Fprintf(w, "%-24s %s\n", name, info.Summary)
		for _, p := range info.Params {
			fmt.Fprintf(w, "    %-10s default %-8s %s\n", p.Name+"=", p.Default, p.Doc)
		}
	}
}

// parseSizes parses one comma-separated region-size vector.
func parseSizes(csv string) ([]int, error) {
	sizes, err := parseInts(csv)
	if err != nil {
		return nil, fmt.Errorf("region sizes: %w", err)
	}
	return sizes, nil
}

// parseInts parses a comma-separated list of non-negative ints ("0"
// entries allowed — both the region and byte axes use 0 as a meaningful
// default, and neither has a legal negative value).
func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", csv, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("parsing %q: negative value %d", csv, n)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseFloats parses a comma-separated float list.
func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", csv, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseTreeShape parses one 'branch,levels,members' (or colon-separated)
// balanced-tree spec.
func parseTreeShape(spec string) (exp.TreeShape, error) {
	sep := ","
	if strings.Contains(spec, ":") {
		sep = ":"
	}
	parts := strings.Split(spec, sep)
	if len(parts) != 3 {
		return exp.TreeShape{}, fmt.Errorf("tree spec %q: want branch%slevels%smembers", spec, sep, sep)
	}
	var vals [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return exp.TreeShape{}, fmt.Errorf("tree spec %q: %w", spec, err)
		}
		vals[i] = v
	}
	return exp.TreeShape{Branch: vals[0], Levels: vals[1], Members: vals[2]}, nil
}

// parseTreeShapes parses a semicolon-separated list of tree specs.
func parseTreeShapes(csv string) ([]exp.TreeShape, error) {
	var out []exp.TreeShape
	for _, spec := range strings.Split(csv, ";") {
		t, err := parseTreeShape(strings.TrimSpace(spec))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// parseDurations parses a comma-separated duration list; a bare "0" is
// allowed (no unit needed for the zero value).
func parseDurations(csv string) ([]time.Duration, error) {
	var out []time.Duration
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "0" {
			out = append(out, 0)
			continue
		}
		v, err := time.ParseDuration(f)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", csv, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// printFitness prints the fitness-ranked cell table -fitness-weights asks
// for. Pure display over the finished report: the report bytes (stdout
// JSON and -out file) are already written when this runs.
func printFitness(w io.Writer, rep exp.Report, spec string) error {
	if spec == "default" {
		spec = ""
	}
	weights, err := exp.ParseFitnessWeights(spec)
	if err != nil {
		return err
	}
	rows := runner.SweepFitness(rep, weights)
	fmt.Fprintf(w, "\nfitness ranking (weights: delivery=%g bytesec=%g unrec=%g recovery=%g; costs normalized over %d cells)\n",
		weights.Delivery, weights.ByteSeconds, weights.Unrecoverable, weights.RecoveryMs, len(rows))
	fmt.Fprintf(w, "%4s %8s %9s %14s %13s %14s  %s\n",
		"rank", "fitness", "delivery", runner.MKUnrecoverable, "recovery(ms)", "buffer(B·s)", "cell")
	for i, r := range rows {
		fmt.Fprintf(w, "%4d %8.3f %8.2f%% %14.1f %13.1f %14.0f  %s\n",
			i+1, r.Score, 100*r.Delivery, r.Unrecoverable, r.RecoveryMs, r.ByteSeconds, r.Name)
	}
	return nil
}

// printScaleReport prints the scale table: per-cell delivery, recovery and
// the machine cost columns the record tracks.
func printScaleReport(w io.Writer, rep runner.ScaleReport) {
	fmt.Fprintf(w, "scale: %d cells × %d trials (base seed %d)\n", len(rep.Cells), rep.Trials, rep.BaseSeed)
	fmt.Fprintf(w, "note: %s\n\n", rep.Note)
	fmt.Fprintf(w, "%-58s %8s %8s %6s %12s %14s %12s %12s\n",
		"cell", "members", "regions", "depth", "delivery", "recovery(ms)", "wall(ms)", "events/s")
	for _, cell := range rep.Cells {
		fmt.Fprintf(w, "%-58s %8d %8d %6d %12s %14s %12.0f %12.2g\n",
			cell.Name, cell.Members, cell.Regions, cell.Depth,
			meanCI(cell.Aggregate, runner.MKDeliveryRatio, "%.3f"),
			meanCI(cell.Aggregate, runner.MKMeanRecoveryMs, "%.1f"),
			cell.WallMsPerTrial, cell.EventsPerSec)
	}
}

// printReport prints the human-readable sweep table: headline metrics as
// mean ± 95% CI per cell.
func printReport(w io.Writer, rep exp.Report) {
	fmt.Fprintf(w, "sweep: %d cells × %d trials (base seed %d)\n\n", len(rep.Cells), rep.Trials, rep.BaseSeed)
	// Byte columns appear only when some cell engages the byte axes, so
	// purely legacy sweeps keep their historical table width.
	bytesSwept := false
	for _, cell := range rep.Cells {
		if _, ok := cell.Aggregate.Metric(runner.MKBufferIntegralByteSec); ok {
			bytesSwept = true
			break
		}
	}
	byteCols := func(cell exp.Cell) string {
		if !bytesSwept {
			return ""
		}
		return fmt.Sprintf(" %18s %10s",
			meanOnly(cell.Aggregate, runner.MKBufferIntegralByteSec, "%.0f"),
			meanOnly(cell.Aggregate, runner.MKPressureEvictions, "%.0f"))
	}
	byteHeader := ""
	if bytesSwept {
		byteHeader = fmt.Sprintf(" %18s %10s", "buffer(B·s)", "pressure")
	}
	fmt.Fprintf(w, "%-52s %16s %12s %16s %18s%s %14s\n",
		"cell", "delivery", "min-reach", "recovery(ms)", "buffer(msg·s)", byteHeader, "packets")
	for _, cell := range rep.Cells {
		fmt.Fprintf(w, "%-52s %16s %12s %16s %18s%s %14s\n",
			cell.Name,
			meanCI(cell.Aggregate, runner.MKDeliveryRatio, "%.3f"),
			meanOnly(cell.Aggregate, runner.MKMinReachFrac, "%.2f"),
			meanCI(cell.Aggregate, runner.MKMeanRecoveryMs, "%.1f"),
			meanCI(cell.Aggregate, runner.MKBufferIntegralMsgSec, "%.1f"),
			byteCols(cell),
			meanOnly(cell.Aggregate, runner.MKPacketsSent, "%.0f"),
		)
	}
}

// meanCI formats a metric as "mean±ci" ("-" when absent).
func meanCI(agg exp.Aggregate, name, verb string) string {
	m, ok := agg.Metric(name)
	if !ok {
		return "-"
	}
	return fmt.Sprintf(verb+"±"+verb, m.Mean, m.CI95)
}

// meanOnly formats a metric's mean ("-" when absent).
func meanOnly(agg exp.Aggregate, name, verb string) string {
	m, ok := agg.Metric(name)
	if !ok {
		return "-"
	}
	return fmt.Sprintf(verb, m.Mean)
}

// parseWorkloadSpec parses the -workload flag: one of the standing
// presets, or a comma-separated key=val spec validated as a whole.
func parseWorkloadSpec(s string) (*workload.Spec, error) {
	switch s {
	case "mc":
		return exp.MultiClientWorkload(), nil
	case "bursty":
		return exp.BurstyWorkload(), nil
	case "vod":
		return exp.VoDPrefixPush(), nil
	}
	spec := &workload.Spec{}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("-workload: %q is not key=val (or a preset: mc|bursty|vod)", field)
		}
		var err error
		switch k {
		//lint:allow metrickey -- workload spec field name, coincides with the metric key
		case "clients":
			spec.Clients, err = strconv.Atoi(v)
		case "msgs":
			spec.Msgs, err = strconv.Atoi(v)
		case "arrival":
			spec.Arrival = v
		case "gap":
			spec.Gap, err = time.ParseDuration(v)
		case "zipf":
			spec.ZipfS, err = strconv.ParseFloat(v, 64)
		case "burst-len":
			spec.BurstLen, err = strconv.Atoi(v)
		case "burst-gap":
			spec.BurstGap, err = time.ParseDuration(v)
		case "window":
			// from-to:factor, e.g. 0s-1s:4 (repeatable).
			var win workload.Window
			span, factor, ok := strings.Cut(v, ":")
			from, to, ok2 := strings.Cut(span, "-")
			if !ok || !ok2 {
				return nil, fmt.Errorf("-workload: window %q: want from-to:factor", v)
			}
			if win.From, err = time.ParseDuration(from); err == nil {
				if win.To, err = time.ParseDuration(to); err == nil {
					win.Factor, err = strconv.ParseFloat(factor, 64)
				}
			}
			spec.Windows = append(spec.Windows, win)
		case "size-model":
			spec.SizeModel = v
		case "size-mean":
			spec.SizeMean, err = strconv.Atoi(v)
		case "late-frac":
			spec.LateJoinFrac, err = strconv.ParseFloat(v, 64)
		case "late-at":
			spec.LateJoinAt, err = time.ParseDuration(v)
		case "late-spread":
			spec.LateJoinSpread, err = time.ParseDuration(v)
		default:
			return nil, fmt.Errorf("-workload: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("-workload: %s=%q: %v", k, v, err)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("-workload: %w", err)
	}
	return spec, nil
}
