// Command rrmp-sim runs simulated RRMP scenarios and prints metrics:
// topology, workload, loss, churn, crash faults, partitions and policy
// are all flags.
//
// One scenario, one trial (the original mode):
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
// policy matrix; -sweep-* flags override the default matrix), with the
// JSON report also written to -out for machine tracking:
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
// Single-run traces stream to stderr with -trace and/or to a file with
// -trace-out (both flags reject sweep/multi-trial modes loudly).
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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/trace"
)

func main() {
	var (
		regions      = flag.String("regions", "100", "comma-separated region sizes (chain hierarchy)")
		star         = flag.Bool("star", false, "attach all regions directly to the sender's region")
		tree         = flag.String("tree", "", "balanced tree topology 'branch,levels,members' (overrides -regions)")
		msgs         = flag.Int("msgs", 20, "messages to publish")
		gap          = flag.Duration("gap", 20*time.Millisecond, "inter-message gap")
		loss         = flag.Float64("loss", 0.2, "independent DATA loss probability")
		lossMode     = flag.String("loss-mode", "", "loss stream model: '' = legacy shared stream (serial-only), 'hash' = per-sender counter hash (shard-safe, runs parallel under -shards; combine with -burst for the shard-safe Gilbert-Elliott chain)")
		burst        = flag.Bool("burst", false, "use a Gilbert-Elliott burst loss channel instead")
		churn        = flag.Float64("churn", 0, "graceful leaves per second (Poisson over non-sender members)")
		crash        = flag.Float64("crash", 0, "crash faults per second (Poisson over non-sender members; no handoff)")
		crashRecover = flag.Duration("crash-recover", 0, "downtime before a crashed member returns (0 = crash-stop)")
		partitionAt  = flag.Duration("partition-at", 0, "instant to split the group into two halves (0 = never)")
		partitionFor = flag.Duration("partition-for", 0, "partition duration before the heal event (0 = never heals)")
		c            = flag.Float64("c", 6, "expected long-term bufferers per region (C)")
		lambda       = flag.Float64("lambda", 1, "expected remote requests per regional loss (lambda)")
		payload      = flag.Int("payload", 0, "payload bytes per message (0 = the historic 256)")
		payloadModel = flag.String("payload-model", "", "payload size model: fixed|uniform|lognormal (sizes drawn around -payload)")
		budget       = flag.Int("budget", 0, "per-member buffer byte budget (0 = unlimited)")
		protocol     = flag.String("protocol", "rrmp", "recovery protocol: rrmp (the paper's) or rmtp (tree repair-server baseline)")
		policy       = flag.String("policy", "two-phase", "buffering policy spec, e.g. two-phase, fixed:hold=200ms or adaptive:tmin=20ms,tmax=200ms,target=2 (rrmp only; rmtp cells always run the repair-server discipline; see -list-policies)")
		hold         = flag.Duration("hold", 500*time.Millisecond, "retention for -policy fixed")
		seed         = flag.Uint64("seed", 1, "root random seed")
		horizon      = flag.Duration("horizon", 5*time.Second, "virtual run time")
		doTrace      = flag.Bool("trace", false, "stream protocol events to stderr (single-trial rrmp mode only)")
		traceOut     = flag.String("trace-out", "", "write protocol events to this file instead of stderr (single-trial rrmp mode only)")
		backoff      = flag.Duration("backoff", 0, "regional repair multicast back-off window (0 = immediate)")
		workloadFlag = flag.String("workload", "", "multi-client publish workload: a preset (mc|bursty|vod) or 'key=val,...' with keys clients,msgs,arrival(constant|poisson|burst),gap,zipf,burst-len,burst-gap,window(from-to:factor),size-model(fixed|uniform|lognormal),size-mean,late-frac,late-at,late-spread")
		traceRecord  = flag.String("trace-record", "", "write the materialized publish timeline to this file as rrmp-trace/v1 (single-trial -workload mode only)")
		traceReplay  = flag.String("trace-replay", "", "drive the run from a recorded rrmp-trace/v1 file instead of generating the timeline (single-trial -workload mode only)")

		sweep      = flag.Bool("sweep", false, "run the scenario matrix instead of a single scenario")
		sweepScale = flag.Bool("sweep-scale", false, "run the scale matrix (members×depth balanced trees) and record wall-clock + events/sec")
		trials     = flag.Int("trials", 1, "independently seeded trials per scenario cell")
		parallel   = flag.Int("parallel", 0, "worker pool size for trials (0 = GOMAXPROCS)")
		shards     = flag.Int("shards", 1, "region-sharded event loops per trial (1 = serial; aggregates are byte-identical at any width)")
		jsonOut    = flag.Bool("json", false, "print the sweep report as JSON instead of a table")
		outPath    = flag.String("out", "", "also write the sweep report JSON here (default BENCH_sweep.json for a default-matrix -sweep; empty = don't)")

		swRegions    = flag.String("sweep-regions", "", "region vectors to sweep, e.g. '50;100;50,50' (default 50;100;30,30)")
		swLosses     = flag.String("sweep-losses", "", "loss rates to sweep, e.g. '0.05,0.2' (default 0.05,0.2)")
		swChurns     = flag.String("sweep-churns", "", "churn rates to sweep, e.g. '0,1' (default 0,1)")
		swCrashes    = flag.String("sweep-crashes", "", "crash rates to sweep, e.g. '0,1' (default 0,1)")
		swPartitions = flag.String("sweep-partitions", "", "partition durations to sweep, e.g. '0,1s' (default 0,1s; 0 = no partition)")
		swPolicies   = flag.String("sweep-policies", "", "policies to sweep, e.g. 'two-phase,fixed' (default two-phase,fixed)")
		swTrees      = flag.String("sweep-trees", "", "tree shapes to sweep as 'branch:levels:members;...' (adds tree cells to -sweep; overrides the -sweep-scale grid)")
		swPayloads   = flag.String("sweep-payloads", "", "payload sizes to sweep, e.g. '0,1024' (default 0,1024; 0 = historic 256)")
		swBudgets    = flag.String("sweep-budgets", "", "buffer byte budgets to sweep, e.g. '0,8192' (default 0,8192; 0 = unlimited)")
		swProtocols  = flag.String("sweep-protocols", "", "protocols to sweep, e.g. 'rrmp,rmtp' (default rrmp,rmtp; rmtp families append after all rrmp cells)")

		listPolicies   = flag.Bool("list-policies", false, "print the policy registry roster (kinds, aliases, parameters) and exit")
		fitnessWeights = flag.String("fitness-weights", "", "print a fitness-ranked cell table after a sweep: 'key=val,...' weights with keys delivery,bytesec,unrec,recovery ('default' = standing weights; never changes the report bytes)")
	)
	flag.Parse()

	if *listPolicies {
		printPolicyRoster(os.Stdout)
		return
	}

	// The committed record tracks the *default* matrix, so it is only the
	// default target when no flag that changes cell semantics was given;
	// customized sweeps and ad-hoc multi-trial runs must not clobber it.
	// (-trials/-parallel/-json stay allowed: trial count is visible in the
	// report and parallelism never changes its bytes.)
	outSet, matrixCustomized, protocolSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "protocol" {
			protocolSet = true
		}
		switch f.Name {
		case "out":
			outSet = true
		case "regions", "star", "tree", "burst", "msgs", "gap", "horizon", "hold",
			"c", "lambda", "backoff", "seed", "churn", "loss", "loss-mode", "policy",
			"crash", "crash-recover", "partition-at", "partition-for",
			"payload", "payload-model", "budget", "protocol",
			"workload", "trace-record", "trace-replay",
			"sweep-regions", "sweep-losses", "sweep-churns", "sweep-crashes",
			"sweep-partitions", "sweep-policies", "sweep-trees",
			"sweep-payloads", "sweep-budgets", "sweep-protocols":
			matrixCustomized = true
		}
	})
	// Tracing observes one deterministic run; a parallel sweep would
	// interleave members of many trials into the same stream. Fail loudly
	// instead of silently dropping the flag, as the old -trace did.
	if (*doTrace || *traceOut != "") && (*sweep || *sweepScale || *trials > 1) {
		fmt.Fprintln(os.Stderr, "rrmp-sim: -trace/-trace-out apply to single-trial mode only")
		os.Exit(2)
	}
	// Timeline traces bind one (workload, seed) pair to one file; sweeps
	// and multi-trial runs have many timelines, so the flags reject those
	// modes the same way the event tracer does.
	if *traceRecord != "" || *traceReplay != "" {
		switch {
		case *sweep || *sweepScale || *trials > 1:
			fmt.Fprintln(os.Stderr, "rrmp-sim: -trace-record/-trace-replay apply to single-trial mode only")
			os.Exit(2)
		case *workloadFlag == "":
			fmt.Fprintln(os.Stderr, "rrmp-sim: -trace-record/-trace-replay require -workload (the spec names the cell the timeline belongs to)")
			os.Exit(2)
		case *traceRecord != "" && *traceReplay != "":
			fmt.Fprintln(os.Stderr, "rrmp-sim: choose one of -trace-record or -trace-replay")
			os.Exit(2)
		}
	}
	if *workloadFlag != "" && (*doTrace || *traceOut != "") {
		fmt.Fprintln(os.Stderr, "rrmp-sim: -trace/-trace-out observe the single-run engine; -workload cells run the sweep kernel, which has no tracer hook")
		os.Exit(2)
	}
	if *workloadFlag != "" && *sweepScale {
		fmt.Fprintln(os.Stderr, "rrmp-sim: -workload does not apply to -sweep-scale")
		os.Exit(2)
	}
	if *fitnessWeights != "" && (*sweepScale || !(*sweep || *trials > 1)) {
		fmt.Fprintln(os.Stderr, "rrmp-sim: -fitness-weights scores sweep/multi-trial reports (use with -sweep or -trials > 1)")
		os.Exit(2)
	}
	if !outSet && *sweep && !*sweepScale && !matrixCustomized {
		*outPath = "BENCH_sweep.json"
	}
	// The committed scale record is regenerated per PR (its wall-clock
	// fields are the point), but a customized scale matrix must not
	// clobber it either.
	if !outSet && *sweepScale && !matrixCustomized {
		*outPath = "BENCH_scale.json"
	}
	if outSet && *outPath != "" && !*sweep && !*sweepScale && *trials <= 1 {
		fmt.Fprintln(os.Stderr, "rrmp-sim: -out only applies with -sweep, -sweep-scale or -trials > 1")
		os.Exit(2)
	}

	var err error
	if *sweepScale {
		err = runScale(scaleArgs{
			trials: *trials, parallel: *parallel, seed: *seed, shards: *shards,
			json: *jsonOut, outPath: *outPath, swTrees: *swTrees,
		})
	} else if *sweep || *trials > 1 {
		err = runSweep(sweepArgs{
			sweep: *sweep, regionsCSV: *regions, star: *star, tree: *tree, msgs: *msgs, gap: *gap,
			loss: *loss, lossMode: *lossMode, burst: *burst, churn: *churn, c: *c, lambda: *lambda,
			backoff: *backoff, policy: *policy, hold: *hold,
			crash: *crash, crashRecover: *crashRecover,
			partitionAt: *partitionAt, partitionFor: *partitionFor,
			payload: *payload, payloadModel: *payloadModel, budget: *budget,
			protocol: *protocol, protocolSet: protocolSet,
			seed: *seed, horizon: *horizon, trials: *trials, parallel: *parallel,
			shards: *shards, json: *jsonOut, outPath: *outPath,
			workload:       *workloadFlag,
			workloadFamily: *sweep && !matrixCustomized,
			fitnessWeights: *fitnessWeights,
			swRegions:      *swRegions, swLosses: *swLosses, swChurns: *swChurns,
			swCrashes: *swCrashes, swPartitions: *swPartitions, swPolicies: *swPolicies,
			swTrees: *swTrees, swPayloads: *swPayloads, swBudgets: *swBudgets,
			swProtocols: *swProtocols,
		})
	} else {
		sa := singleArgs{
			regionsCSV: *regions, star: *star, tree: *tree, msgs: *msgs, gap: *gap,
			loss: *loss, lossMode: *lossMode, burst: *burst, churn: *churn, c: *c, lambda: *lambda,
			policy: *policy, hold: *hold, seed: *seed, horizon: *horizon,
			doTrace: *doTrace, traceOut: *traceOut, backoff: *backoff,
			crash: *crash, crashRecover: *crashRecover,
			partitionAt: *partitionAt, partitionFor: *partitionFor,
			payload: *payload, payloadModel: *payloadModel, budget: *budget,
			protocol: *protocol, shards: *shards,
		}
		if *workloadFlag != "" {
			err = runSingleWorkload(os.Stdout, workloadArgs{
				single: sa, workload: *workloadFlag,
				traceRecord: *traceRecord, traceReplay: *traceReplay,
			})
		} else {
			err = run(sa)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrmp-sim:", err)
		os.Exit(1)
	}
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
func parseTreeShape(spec string) (repro.TreeShape, error) {
	sep := ","
	if strings.Contains(spec, ":") {
		sep = ":"
	}
	parts := strings.Split(spec, sep)
	if len(parts) != 3 {
		return repro.TreeShape{}, fmt.Errorf("tree spec %q: want branch%slevels%smembers", spec, sep, sep)
	}
	var vals [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return repro.TreeShape{}, fmt.Errorf("tree spec %q: %w", spec, err)
		}
		vals[i] = v
	}
	return repro.TreeShape{Branch: vals[0], Levels: vals[1], Members: vals[2]}, nil
}

// parseTreeShapes parses a semicolon-separated list of tree specs.
func parseTreeShapes(csv string) ([]repro.TreeShape, error) {
	var out []repro.TreeShape
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

type sweepArgs struct {
	sweep      bool
	regionsCSV string
	star       bool
	tree       string
	msgs       int
	gap        time.Duration
	loss       float64
	// lossMode sets Sweep.LossMode: "" is the legacy shared stream,
	// "hash" the shard-safe per-sender counter hash. Part of cell
	// identity (it changes which packets drop), unlike shards.
	lossMode     string
	burst        bool
	churn        float64
	crash        float64
	crashRecover time.Duration
	partitionAt  time.Duration
	partitionFor time.Duration
	c            float64
	lambda       float64
	backoff      time.Duration
	policy       string
	hold         time.Duration
	payload      int
	payloadModel string
	budget       int
	protocol     string
	// protocolSet records that -protocol was given explicitly, so even
	// the default value "rrmp" pins the sweep's protocol axis.
	protocolSet bool
	seed        uint64
	horizon     time.Duration
	trials      int
	parallel    int
	// shards sets Sweep.Shards: region-sharded event loops per trial.
	// Execution-only (like parallel) — aggregates stay byte-identical.
	shards  int
	json    bool
	outPath string
	// quiet suppresses stdout reporting (the in-process golden test only
	// compares the -out files).
	quiet bool
	// workload, when set, pins the sweep's workload axis to one parsed
	// -workload spec (multi-trial statistics for a workload cell).
	workload string
	// workloadFamily appends the standing WorkloadSweep matrix and the
	// AdaptiveSweep policy family after the main sweep — the default
	// -sweep shape BENCH_sweep.json records.
	workloadFamily bool
	// fitnessWeights, when non-empty, prints a fitness-ranked cell table
	// after the report ("default" = standing weights). Display-only: it
	// never changes the report bytes.
	fitnessWeights string
	swRegions      string
	swLosses       string
	swChurns       string
	swCrashes      string
	swPartitions   string
	swPolicies     string
	swTrees        string
	swPayloads     string
	swBudgets      string
	swProtocols    string
}

// runSweep runs either the scenario matrix (-sweep) or a single-cell sweep
// (-trials > 1 without -sweep) and reports per-cell aggregates.
func runSweep(a sweepArgs) error {
	if a.payload < 0 || a.budget < 0 {
		return fmt.Errorf("-payload and -budget must be non-negative (got %d, %d)", a.payload, a.budget)
	}
	// Single-cell modes partition only when -partition-at is set ("0 =
	// never"); the axis encodes "none" as duration 0. An open-ended
	// partition (-partition-at without -partition-for) runs to the horizon.
	pf := time.Duration(0)
	if a.partitionAt > 0 {
		pf = a.partitionFor
		if pf <= 0 {
			pf = a.horizon
		}
	}

	var sw repro.Sweep
	if a.sweep {
		sw = repro.DefaultSweep()
		if a.swRegions != "" {
			sw.Regions = nil
			for _, vec := range strings.Split(a.swRegions, ";") {
				sizes, err := parseSizes(vec)
				if err != nil {
					return err
				}
				sw.Regions = append(sw.Regions, sizes)
			}
		}
		var err error
		if a.swLosses != "" {
			if sw.Losses, err = parseFloats(a.swLosses); err != nil {
				return err
			}
		}
		if a.swChurns != "" {
			if sw.Churns, err = parseFloats(a.swChurns); err != nil {
				return err
			}
		}
		if a.swCrashes != "" {
			if sw.Crashes, err = parseFloats(a.swCrashes); err != nil {
				return err
			}
		}
		if a.swPartitions != "" {
			if sw.Partitions, err = parseDurations(a.swPartitions); err != nil {
				return err
			}
		}
		if a.swPolicies != "" {
			sw.Policies = nil
			for _, p := range strings.Split(a.swPolicies, ",") {
				sw.Policies = append(sw.Policies, strings.TrimSpace(p))
			}
		}
		if a.swTrees != "" {
			trees, err := parseTreeShapes(a.swTrees)
			if err != nil {
				return err
			}
			sw.Trees = trees
		}
	} else if a.tree != "" {
		// Multi-trial statistics for one tree cell.
		shape, err := parseTreeShape(a.tree)
		if err != nil {
			return err
		}
		sw = repro.Sweep{
			Trees:      []repro.TreeShape{shape},
			Losses:     []float64{a.loss},
			Churns:     []float64{a.churn},
			Crashes:    []float64{a.crash},
			Partitions: []time.Duration{pf},
			Policies:   []string{a.policy},
		}
	} else {
		sizes, err := parseSizes(a.regionsCSV)
		if err != nil {
			return err
		}
		sw = repro.Sweep{
			Regions:    [][]int{sizes},
			Losses:     []float64{a.loss},
			Churns:     []float64{a.churn},
			Crashes:    []float64{a.crash},
			Partitions: []time.Duration{pf},
			Policies:   []string{a.policy},
		}
	}
	// Byte axes: explicit -sweep-* lists win; otherwise a scalar -payload
	// or -budget pins its axis to that one value, so `-sweep-payloads
	// 512,2048 -budget 4096` reads as a payload axis × one fixed budget.
	if a.swPayloads != "" {
		v, err := parseInts(a.swPayloads)
		if err != nil {
			return err
		}
		sw.PayloadSizes = v
	} else if a.payload > 0 {
		sw.PayloadSizes = []int{a.payload}
	}
	if a.swBudgets != "" {
		v, err := parseInts(a.swBudgets)
		if err != nil {
			return err
		}
		sw.Budgets = v
	} else if a.budget > 0 {
		sw.Budgets = []int{a.budget}
	}
	if a.payloadModel != "" && a.payloadModel != "fixed" {
		sw.PayloadModel = a.payloadModel
	}
	// Protocol axis: an explicit -sweep-protocols list wins; otherwise an
	// explicit scalar -protocol pins the axis to that one protocol (same
	// rule the byte axes follow — and "-sweep -protocol rrmp" genuinely
	// excludes the rmtp family, not just when the value is non-default).
	if a.swProtocols != "" {
		sw.Protocols = nil
		for _, p := range strings.Split(a.swProtocols, ",") {
			p = strings.TrimSpace(p)
			// Validate here, like the other axes: an empty token (a
			// trailing comma) would otherwise normalize to a second
			// identical rrmp family instead of erroring.
			if p != "rrmp" && p != "rmtp" {
				return fmt.Errorf("-sweep-protocols: unknown protocol %q (want rrmp or rmtp)", p)
			}
			sw.Protocols = append(sw.Protocols, p)
		}
	} else if a.protocolSet || (a.protocol != "" && a.protocol != "rrmp") {
		sw.Protocols = []string{a.protocol}
	}
	sw.Star = a.star
	sw.LossMode = a.lossMode
	sw.Burst = a.burst
	sw.Shards = a.shards
	sw.FixedHold = a.hold
	sw.C = a.c
	sw.Lambda = a.lambda
	sw.RepairBackoff = a.backoff
	sw.CrashRecover = a.crashRecover
	sw.PartitionAt = a.partitionAt
	sw.Msgs = a.msgs
	sw.Gap = a.gap
	sw.Horizon = a.horizon
	if a.workload != "" {
		spec, err := parseWorkloadSpec(a.workload)
		if err != nil {
			return err
		}
		sw.Workloads = []*repro.WorkloadSpec{spec}
	}

	// The default -sweep shape is the standing matrix plus the workload
	// and adaptive-policy families, run through one pool into one report;
	// each family's cells append after all earlier cells, so the committed
	// record grows without a single pre-existing cell moving or re-byting.
	sweeps := []repro.Sweep{sw}
	if a.workloadFamily {
		wf := repro.WorkloadSweep()
		wf.Shards = a.shards
		af := repro.AdaptiveSweep()
		af.Shards = a.shards
		sweeps = append(sweeps, wf, af)
	}
	rep, err := repro.RunSweeps(repro.SweepOptions{
		Trials:   a.trials,
		Parallel: a.parallel,
		BaseSeed: a.seed,
	}, sweeps...)
	if err != nil {
		return err
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	switch {
	case a.quiet:
	case a.json:
		os.Stdout.Write(blob)
	default:
		printReport(rep)
	}
	if a.outPath != "" {
		if err := os.WriteFile(a.outPath, blob, 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		fmt.Fprintf(os.Stderr, "rrmp-sim: wrote %s (%d cells × %d trials)\n",
			a.outPath, len(rep.Cells), rep.Trials)
	}
	if a.fitnessWeights != "" && !a.quiet {
		if err := printFitness(os.Stdout, rep, a.fitnessWeights); err != nil {
			return err
		}
	}
	return nil
}

// printFitness prints the fitness-ranked cell table -fitness-weights asks
// for. Pure display over the finished report: the report bytes (stdout
// JSON and -out file) are already written when this runs.
func printFitness(w io.Writer, rep repro.SweepReport, spec string) error {
	if spec == "default" {
		spec = ""
	}
	weights, err := repro.ParseFitnessWeights(spec)
	if err != nil {
		return err
	}
	rows := repro.SweepFitness(rep, weights)
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

// scaleArgs are the -sweep-scale mode's inputs.
type scaleArgs struct {
	trials   int
	parallel int
	seed     uint64
	// shards sets Sweep.Shards on every scale row (execution-only; the
	// aggregate sections stay byte-identical at any width).
	shards  int
	json    bool
	outPath string
	swTrees string
	// quiet suppresses stdout reporting (in-process tests).
	quiet bool
}

// runScale runs the members×depth scale matrix, timing every cell, and
// writes the rrmp-scale/v1 report (BENCH_scale.json by default — the
// committed perf-trajectory record every PR regenerates).
func runScale(a scaleArgs) error {
	sw := repro.ScaleSweep()
	sw.Shards = a.shards
	// The default grid appends the XL rows (10k/100k members) and the 1M
	// hash-burst row after the standing matrix; -sweep-trees replaces the
	// whole grid instead.
	var sweeps []repro.Sweep
	if a.swTrees != "" {
		trees, err := parseTreeShapes(a.swTrees)
		if err != nil {
			return err
		}
		sw.Trees = trees
		sweeps = []repro.Sweep{sw}
	} else {
		xl := repro.ScaleSweepXL()
		xl.Shards = a.shards
		m1 := repro.ScaleSweep1M()
		m1.Shards = a.shards
		sweeps = []repro.Sweep{sw, xl, m1}
	}
	rep, err := repro.RunScale(repro.SweepOptions{
		Trials:   a.trials,
		Parallel: a.parallel,
		BaseSeed: a.seed,
	}, sweeps...)
	if err != nil {
		return err
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	switch {
	case a.quiet:
	case a.json:
		os.Stdout.Write(blob)
	default:
		printScaleReport(rep)
	}
	if a.outPath != "" {
		if err := os.WriteFile(a.outPath, blob, 0o644); err != nil {
			return fmt.Errorf("writing scale report: %w", err)
		}
		fmt.Fprintf(os.Stderr, "rrmp-sim: wrote %s (%d cells × %d trials)\n",
			a.outPath, len(rep.Cells), rep.Trials)
	}
	return nil
}

// printScaleReport prints the scale table: per-cell delivery, recovery and
// the machine cost columns the record tracks.
func printScaleReport(rep repro.ScaleReport) {
	fmt.Printf("scale: %d cells × %d trials (base seed %d)\n", len(rep.Cells), rep.Trials, rep.BaseSeed)
	fmt.Printf("note: %s\n\n", rep.Note)
	fmt.Printf("%-58s %8s %8s %6s %12s %14s %12s %12s\n",
		"cell", "members", "regions", "depth", "delivery", "recovery(ms)", "wall(ms)", "events/s")
	for _, cell := range rep.Cells {
		fmt.Printf("%-58s %8d %8d %6d %12s %14s %12.0f %12.2g\n",
			cell.Name, cell.Members, cell.Regions, cell.Depth,
			meanCI(cell.Aggregate, runner.MKDeliveryRatio, "%.3f"),
			meanCI(cell.Aggregate, runner.MKMeanRecoveryMs, "%.1f"),
			cell.WallMsPerTrial, cell.EventsPerSec)
	}
}

// printReport prints the human-readable sweep table: headline metrics as
// mean ± 95% CI per cell.
func printReport(rep repro.SweepReport) {
	fmt.Printf("sweep: %d cells × %d trials (base seed %d)\n\n", len(rep.Cells), rep.Trials, rep.BaseSeed)
	// Byte columns appear only when some cell engages the byte axes, so
	// purely legacy sweeps keep their historical table width.
	bytesSwept := false
	for _, cell := range rep.Cells {
		if _, ok := cell.Aggregate.Metric(runner.MKBufferIntegralByteSec); ok {
			bytesSwept = true
			break
		}
	}
	byteCols := func(cell repro.SweepCell) string {
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
	fmt.Printf("%-52s %16s %12s %16s %18s%s %14s\n",
		"cell", "delivery", "min-reach", "recovery(ms)", "buffer(msg·s)", byteHeader, "packets")
	for _, cell := range rep.Cells {
		fmt.Printf("%-52s %16s %12s %16s %18s%s %14s\n",
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
func meanCI(agg repro.TrialAggregate, name, verb string) string {
	m, ok := agg.Metric(name)
	if !ok {
		return "-"
	}
	return fmt.Sprintf(verb+"±"+verb, m.Mean, m.CI95)
}

// meanOnly formats a metric's mean ("-" when absent).
func meanOnly(agg repro.TrialAggregate, name, verb string) string {
	m, ok := agg.Metric(name)
	if !ok {
		return "-"
	}
	return fmt.Sprintf(verb, m.Mean)
}

// singleArgs are the single-scenario, single-trial mode's inputs.
type singleArgs struct {
	regionsCSV   string
	star         bool
	tree         string
	msgs         int
	gap          time.Duration
	loss         float64
	lossMode     string
	burst        bool
	churn        float64
	crash        float64
	crashRecover time.Duration
	partitionAt  time.Duration
	partitionFor time.Duration
	c            float64
	lambda       float64
	policy       string
	hold         time.Duration
	payload      int
	payloadModel string
	budget       int
	protocol     string
	// shards requests region-sharded event loops (1 = serial; lossy cells
	// with the legacy shared loss stream fall back to serial).
	shards   int
	seed     uint64
	horizon  time.Duration
	doTrace  bool
	traceOut string
	backoff  time.Duration
}

// runSingleRMTP runs one seeded trial of the tree baseline by building the
// equivalent scenario cell and printing its metrics: the single-run mode's
// rich narrative output is RRMP-specific, but the cell metrics are the
// protocol-comparable currency anyway.
func runSingleRMTP(a singleArgs) error {
	sc := repro.Scenario{
		Protocol: "rmtp",
		Loss:     a.loss,
		LossMode: a.lossMode,
		Burst:    a.burst,
		Churn:    a.churn,
		Crash:    a.crash,
		Policy:   "server",
		Msgs:     a.msgs,
		Gap:      a.gap,
		Horizon:  a.horizon,
	}
	if a.crash > 0 {
		sc.CrashRecover = a.crashRecover
	}
	if a.partitionAt > 0 {
		sc.PartitionAt = a.partitionAt
		sc.PartitionDur = a.partitionFor
	}
	sc.PayloadBytes = a.payload
	if a.payloadModel != "" && a.payloadModel != "fixed" {
		sc.PayloadModel = a.payloadModel
	}
	sc.ByteBudget = a.budget
	if a.tree != "" {
		shape, err := parseTreeShape(a.tree)
		if err != nil {
			return err
		}
		sc.Tree = &shape
	} else {
		sizes, err := parseSizes(a.regionsCSV)
		if err != nil {
			return err
		}
		sc.Regions = sizes
		sc.Star = a.star
	}
	m, err := repro.RunScenario(sc, a.seed)
	if err != nil {
		return err
	}
	fmt.Printf("rmtp baseline: %s (seed %d)\n", sc.Name(), a.seed)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %g\n", k, m[k])
	}
	return nil
}

// parseWorkloadSpec parses the -workload flag: one of the standing
// presets, or a comma-separated key=val spec validated as a whole.
func parseWorkloadSpec(s string) (*repro.WorkloadSpec, error) {
	switch s {
	case "mc":
		return repro.MultiClientWorkload(), nil
	case "bursty":
		return repro.BurstyWorkload(), nil
	case "vod":
		return repro.VoDPrefixPush(), nil
	}
	spec := &repro.WorkloadSpec{}
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
			var win repro.WorkloadWindow
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

// workloadArgs are the single-trial -workload mode's inputs.
type workloadArgs struct {
	single   singleArgs
	workload string
	// traceRecord writes the cell's materialized timeline to this file
	// as rrmp-trace/v1 after the run.
	traceRecord string
	// traceReplay drives the run from this recorded rrmp-trace/v1 file
	// instead of the generated timeline. A trace recorded from the same
	// cell and seed replays to a byte-identical report.
	traceReplay string
}

// runSingleWorkload runs one seeded trial of a multi-client workload cell
// through the sweep kernel (the Group facade publishes from one sender;
// workload cells need per-client senders) and prints the cell metrics —
// the same currency runSingleRMTP speaks, so record and replay runs can
// be compared byte for byte.
func runSingleWorkload(w io.Writer, a workloadArgs) error {
	s := a.single
	if s.payload < 0 || s.budget < 0 {
		return fmt.Errorf("-payload and -budget must be non-negative (got %d, %d)", s.payload, s.budget)
	}
	spec, err := parseWorkloadSpec(a.workload)
	if err != nil {
		return err
	}
	sc := repro.Scenario{
		Loss: s.loss, LossMode: s.lossMode, Burst: s.burst,
		Churn: s.churn, Crash: s.crash,
		Policy: s.policy, FixedHold: s.hold,
		C: s.c, Lambda: s.lambda, RepairBackoff: s.backoff,
		Msgs: s.msgs, Gap: s.gap, Horizon: s.horizon,
		ByteBudget: s.budget,
		Workload:   spec,
		Shards:     s.shards,
	}
	switch s.protocol {
	case "", "rrmp":
	case "rmtp":
		sc.Protocol = "rmtp"
		sc.Policy = "server"
	default:
		return fmt.Errorf("unknown protocol %q (want rrmp or rmtp)", s.protocol)
	}
	if s.crash > 0 {
		sc.CrashRecover = s.crashRecover
	}
	if s.partitionAt > 0 {
		sc.PartitionAt = s.partitionAt
		sc.PartitionDur = s.partitionFor
	}
	sc.PayloadBytes = s.payload
	if s.payloadModel != "" && s.payloadModel != "fixed" {
		sc.PayloadModel = s.payloadModel
	}
	if s.tree != "" {
		shape, err := parseTreeShape(s.tree)
		if err != nil {
			return err
		}
		sc.Tree = &shape
	} else {
		sizes, err := parseSizes(s.regionsCSV)
		if err != nil {
			return err
		}
		sc.Regions = sizes
		sc.Star = s.star
	}

	var m map[string]float64
	if a.traceReplay != "" {
		f, err := os.Open(a.traceReplay)
		if err != nil {
			return fmt.Errorf("opening trace: %w", err)
		}
		tl, err := repro.ReplayTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("replaying %s: %w", a.traceReplay, err)
		}
		if m, err = repro.RunScenarioTimeline(sc, s.seed, tl); err != nil {
			return err
		}
	} else {
		if m, err = repro.RunScenario(sc, s.seed); err != nil {
			return err
		}
		if a.traceRecord != "" {
			tl, err := repro.ScenarioTimeline(sc, s.seed)
			if err != nil {
				return err
			}
			f, err := os.Create(a.traceRecord)
			if err != nil {
				return fmt.Errorf("creating trace: %w", err)
			}
			if err := repro.RecordTrace(f, tl); err != nil {
				f.Close()
				return fmt.Errorf("recording trace: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("closing trace: %w", err)
			}
			fmt.Fprintf(os.Stderr, "rrmp-sim: wrote %s (%d events, %d clients)\n",
				a.traceRecord, len(tl), tl.Clients())
		}
	}
	fmt.Fprintf(w, "workload cell: %s (seed %d)\n", sc.Name(), s.seed)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %g\n", k, m[k])
	}
	return nil
}

func run(a singleArgs) error {
	if a.payload < 0 || a.budget < 0 {
		return fmt.Errorf("-payload and -budget must be non-negative (got %d, %d)", a.payload, a.budget)
	}
	switch a.protocol {
	case "", "rrmp":
	case "rmtp":
		if a.doTrace || a.traceOut != "" {
			return fmt.Errorf("-trace/-trace-out observe the rrmp engine; the rmtp baseline has no tracer hook")
		}
		return runSingleRMTP(a)
	default:
		return fmt.Errorf("unknown protocol %q (want rrmp or rmtp)", a.protocol)
	}
	var sizes []int
	if a.tree == "" {
		var err error
		if sizes, err = parseSizes(a.regionsCSV); err != nil {
			return err
		}
	}
	msgs, gap, loss, seed, horizon := a.msgs, a.gap, a.loss, a.seed, a.horizon
	churn, policyName := a.churn, a.policy

	params := repro.DefaultParams()
	params.C = a.c
	params.Lambda = a.lambda
	params.RepairBackoffMax = a.backoff
	params.ByteBudget = a.budget
	// Fault scenarios need the failure detector so recovery routes around
	// dead members (same rule the sweep runner applies).
	params.FDEnabled = a.crash > 0 || a.partitionAt > 0

	opts := []repro.Option{
		repro.WithSeed(seed),
		repro.WithParams(params),
	}
	if a.shards > 1 {
		opts = append(opts, repro.WithShards(a.shards))
	}
	switch {
	case a.tree != "":
		shape, err := parseTreeShape(a.tree)
		if err != nil {
			return err
		}
		opts = append(opts, repro.WithTree(shape.Branch, shape.Levels, shape.Members))
	case a.star:
		opts = append(opts, repro.WithStar(sizes...))
	default:
		opts = append(opts, repro.WithRegions(sizes...))
	}
	switch a.lossMode {
	case "", "hash":
	default:
		return fmt.Errorf("unknown loss mode %q (want '' or 'hash')", a.lossMode)
	}
	if loss > 0 {
		if a.shards > 1 && a.lossMode != "hash" {
			// The legacy shared loss stream only reproduces on one loop,
			// so the run silently runs at width 1 (effectiveShards).
			// Say so instead of letting -shards look like a no-op.
			fmt.Fprintf(os.Stderr, "rrmp-sim: -shards %d with the legacy loss stream runs serial; use -loss-mode hash for shard-safe loss\n", a.shards)
		}
		switch {
		case a.burst && a.lossMode == "hash":
			opts = append(opts, repro.WithHashBurstLoss(loss))
		case a.burst:
			opts = append(opts, repro.WithBurstDataLoss(loss))
		case a.lossMode == "hash":
			opts = append(opts, repro.WithHashDataLoss(loss))
		default:
			opts = append(opts, repro.WithDataLoss(loss))
		}
	}
	// The registry owns the policy grammar; a bad spec fails inside
	// NewGroup with the registry's known-kinds menu in the error.
	opts = append(opts, repro.WithPolicySpec(policyName), repro.WithFixedHold(a.hold))
	// Tracing routes through the cluster's Tracer hook: -trace streams to
	// stderr (the historic behaviour), -trace-out to a file, and both at
	// once fan out to both sinks.
	var traceSinks []io.Writer
	var traceFile *os.File
	if a.doTrace {
		traceSinks = append(traceSinks, os.Stderr)
	}
	if a.traceOut != "" {
		f, err := os.Create(a.traceOut)
		if err != nil {
			return fmt.Errorf("opening trace output: %w", err)
		}
		traceFile = f
		defer func() {
			if traceFile != nil {
				traceFile.Close()
			}
		}()
		traceSinks = append(traceSinks, f)
	}
	switch len(traceSinks) {
	case 0:
	case 1:
		opts = append(opts, repro.WithTracer(&trace.Writer{W: traceSinks[0]}))
	default:
		opts = append(opts, repro.WithTracer(&trace.Writer{W: io.MultiWriter(traceSinks...)}))
	}

	g, err := repro.NewGroup(opts...)
	if err != nil {
		return err
	}
	g.StartSessions()
	// One backing buffer serves every publish at its drawn size, exactly
	// as the sweep runner does (fixed sizes draw no randomness, so legacy
	// invocations replay identically).
	paySizes, maxSize, err := runner.PayloadSizesFor(a.payloadModel, a.payload, msgs, seed)
	if err != nil {
		return err
	}
	payloadBuf := make([]byte, maxSize)
	ids := make([]repro.MessageID, 0, msgs)
	for i := 0; i < msgs; i++ {
		i := i
		g.At(time.Duration(i)*gap, func() { ids = append(ids, g.Publish(payloadBuf[:paySizes[i]])) })
	}

	// Churn and crashes: Poisson-timed schedules of distinct random
	// non-sender members (the sweep runner's construction, shared so both
	// modes produce the identical fault sequence for a seed).
	var candidates []repro.NodeID
	if churn > 0 || a.crash > 0 {
		for n := repro.NodeID(0); n < repro.NodeID(g.NumMembers()); n++ {
			if n != g.SenderID() {
				candidates = append(candidates, n)
			}
		}
	}
	// Counted at execution time: a member drawn by both streams only has
	// its first fault injected (the runner counts the same way).
	leaves, crashes := 0, 0
	if churn > 0 {
		runner.ScheduleChurn(rng.New(seed).Split(runner.ChurnStreamLabel),
			churn, horizon, candidates, func(at time.Duration, victim repro.NodeID) {
				g.At(at, func() {
					if m := g.Member(victim); m.Left() || m.Crashed() {
						return
					}
					g.Leave(victim)
					leaves++
				})
			})
	}
	if a.crash > 0 {
		runner.ScheduleChurn(rng.New(seed).Split(runner.CrashStreamLabel),
			a.crash, horizon, candidates, func(at time.Duration, victim repro.NodeID) {
				g.At(at, func() {
					if m := g.Member(victim); m.Left() || m.Crashed() {
						return
					}
					g.Crash(victim)
					crashes++
				})
				if a.crashRecover > 0 {
					g.At(at+a.crashRecover, func() { g.Recover(victim) })
				}
			})
	}
	if a.partitionAt > 0 {
		g.At(a.partitionAt, g.Partition)
		if a.partitionFor > 0 {
			g.At(a.partitionAt+a.partitionFor, g.Heal)
		}
	}

	g.Run(horizon)

	fmt.Printf("topology: %d members in %d regions (seed %d)\n", g.NumMembers(), g.NumRegions(), seed)
	fmt.Printf("workload: %d messages every %v, %.0f%% DATA loss (burst=%v), policy %s\n",
		msgs, gap, 100*loss, a.burst, policyName)
	if churn > 0 {
		fmt.Printf("churn:    %.2g leaves/s — %d members departed gracefully\n", churn, leaves)
	}
	if a.crash > 0 {
		mode := "crash-stop"
		if a.crashRecover > 0 {
			mode = fmt.Sprintf("recover after %v", a.crashRecover)
		}
		fmt.Printf("crashes:  %.2g faults/s (%s) — %d members crashed\n", a.crash, mode, crashes)
	}
	if a.partitionAt > 0 {
		heal := "never healed"
		if a.partitionFor > 0 {
			heal = fmt.Sprintf("healed at %v", a.partitionAt+a.partitionFor)
		}
		fmt.Printf("partition: cut at %v, %s\n", a.partitionAt, heal)
	}
	fmt.Printf("virtual time: %v\n\n", g.Now())

	complete := 0
	worst := g.NumMembers()
	for _, id := range ids {
		got := g.CountReceived(id)
		if got == g.NumMembers() {
			complete++
		}
		if got < worst {
			worst = got
		}
	}
	fmt.Printf("delivery: %d/%d messages fully delivered; worst message reached %d/%d members\n",
		complete, len(ids), worst, g.NumMembers())

	s := g.Stats()
	fmt.Printf("recovery: %d local requests, %d remote requests, %d repairs, %d regional multicasts\n",
		s.LocalRequests, s.RemoteRequests, s.Repairs, s.RegionalMulticasts)
	if s.Searches > 0 || s.Suspects > 0 || s.Unrecoverable > 0 {
		fmt.Printf("faults:   %d searches (%d failed), %d suspect events, %d unrecoverable losses\n",
			s.Searches, s.SearchFailures, s.Suspects, s.Unrecoverable)
	}
	fmt.Printf("latency:  mean recovery %.1f ms, mean buffering %.1f ms\n",
		s.MeanRecoveryMs, s.MeanBufferingMs)
	if s.MeanReRecoveryMs > 0 {
		fmt.Printf("          mean post-crash re-recovery %.1f ms\n", s.MeanReRecoveryMs)
	}
	fmt.Printf("buffers:  %d entries live (%d long-term); %.1f msg·s total buffering cost\n",
		s.BufferedEntries, s.LongTermEntries, s.BufferIntegral)
	fmt.Printf("bytes:    %d B held (worst member peaked at %d B); %.1f B·s byte cost\n",
		s.BufferedBytes, s.PeakBufferedBytes, s.ByteIntegral)
	if a.budget > 0 {
		fmt.Printf("budget:   %d B per member — %d pressure evictions, %d denials\n",
			a.budget, s.PressureEvictions, s.BudgetDenials)
	}
	fmt.Printf("network:  %d packets, %d bytes offered\n", g.TotalPacketsSent(), g.TotalBytesSent())
	// Close the trace file explicitly so a failed flush (full disk, ...)
	// surfaces as an error instead of an exit-0 truncated trace.
	if traceFile != nil {
		err := traceFile.Close()
		traceFile = nil
		if err != nil {
			return fmt.Errorf("closing trace output: %w", err)
		}
	}
	return nil
}
