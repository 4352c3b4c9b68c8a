package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/runner"
)

// cli runs the command in-process and returns its exit status, stdout and
// stderr.
func cli(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustCLI runs the command in-process, fails the test unless it exits 0,
// and returns its stdout.
func mustCLI(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := cli(args...)
	if code != 0 {
		t.Fatalf("rrmp-sim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// report runs the command with -out and returns the report bytes.
func report(t *testing.T, args ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	mustCLI(t, append(args, "-out", out)...)
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSweepReportByteIdenticalAcrossParallelism runs the full -sweep code
// path in-process (small topologies, the default fault axes, 2 trials)
// and asserts the rrmp-sweep/v1 JSON report written to -out is
// byte-identical at -parallel 1 and -parallel 4 — the determinism
// contract the committed BENCH_sweep.json depends on — including the new
// crash and partition cells.
func TestSweepReportByteIdenticalAcrossParallelism(t *testing.T) {
	// Shrink topologies; keep every default axis.
	sweep := func(parallel string) []byte {
		return report(t, "-sweep", "-sweep-regions", "8;6,6", "-trials", "2", "-parallel", parallel, "-seed", "1")
	}
	serial := sweep("1")
	wide := sweep("4")
	if !bytes.Equal(serial, wide) {
		t.Fatal("sweep report bytes differ between -parallel 1 and -parallel 4")
	}

	var rep exp.Report
	if err := json.Unmarshal(serial, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != "rrmp-sweep/v1" {
		t.Fatalf("schema %q, want rrmp-sweep/v1", rep.Schema)
	}
	if rep.Trials != 2 {
		t.Fatalf("trials %d, want 2", rep.Trials)
	}

	crashCells, partCells, byteCells, legacyCells := 0, 0, 0, 0
	rmtpCells, sawRMTP := 0, false
	for _, cell := range rep.Cells {
		if cell.Scenario.Protocol == "rmtp" {
			rmtpCells++
			sawRMTP = true
			if !strings.Contains(cell.Name, "proto=rmtp") || cell.Scenario.Policy != "server" {
				t.Fatalf("rmtp cell %q malformed", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("nak_sent"); !ok {
				t.Fatalf("rmtp cell %q reports no nak_sent", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("ack_trim"); !ok {
				t.Fatalf("rmtp cell %q reports no ack_trim", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("searches"); ok {
				t.Fatalf("rmtp cell %q leaked the RRMP-only searches key", cell.Name)
			}
		} else if sawRMTP {
			t.Fatalf("rrmp cell %q appears after the rmtp family began", cell.Name)
		} else if _, ok := cell.Aggregate.Metric("nak_sent"); ok {
			t.Fatalf("rrmp cell %q leaked the rmtp-only nak_sent key", cell.Name)
		}
		if cell.Scenario.Crash > 0 {
			crashCells++
			if !strings.Contains(cell.Name, "crash=") {
				t.Fatalf("crash cell %q lacks a crash token", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("crashes"); !ok {
				t.Fatalf("crash cell %q reports no crashes metric", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("unrecoverable"); !ok {
				t.Fatalf("crash cell %q reports no unrecoverable metric", cell.Name)
			}
		}
		if cell.Scenario.PartitionAt > 0 {
			partCells++
			if !strings.Contains(cell.Name, "part=") {
				t.Fatalf("partition cell %q lacks a part token", cell.Name)
			}
		}
		// Byte-axis cells carry the byte-currency keys; legacy cells must
		// not (their key set is pinned by the golden report).
		_, hasBytes := cell.Aggregate.Metric("buffer_integral_bytesec")
		if cell.Scenario.PayloadBytes > 0 || cell.Scenario.ByteBudget > 0 {
			byteCells++
			if !hasBytes {
				t.Fatalf("byte-axis cell %q reports no buffer_integral_bytesec", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("pressure_evictions"); !ok {
				t.Fatalf("byte-axis cell %q reports no pressure_evictions", cell.Name)
			}
		} else {
			legacyCells++
			if hasBytes {
				t.Fatalf("legacy cell %q leaked byte-currency keys", cell.Name)
			}
		}
	}
	if crashCells == 0 || partCells == 0 {
		t.Fatalf("default matrix has %d crash and %d partition cells; want both > 0",
			crashCells, partCells)
	}
	if legacyCells == 0 || byteCells != 3*legacyCells {
		t.Fatalf("default matrix has %d legacy and %d byte-axis cells; want a 1:3 split",
			legacyCells, byteCells)
	}
	// The protocol axis: rmtp collapses the 2-policy axis, so its family
	// is half the rrmp family's size and appends after it.
	if rmtpCells == 0 || 3*rmtpCells != len(rep.Cells) {
		t.Fatalf("default matrix has %d rmtp cells of %d; want a 2:1 rrmp:rmtp split",
			rmtpCells, len(rep.Cells))
	}
}

// TestBudgetSweepPressureAndDeterminism is the byte-axis acceptance run: a
// budget-constrained payload sweep must actually hit the budget (pressure
// evictions > 0), keep survivor delivery ≥ 0.99 at a sane budget, and stay
// byte-identical across -parallel 1 and 8. Pinned to the rrmp protocol:
// the ≥ 0.99 survivor bound is an RRMP property (an orphaned rmtp region
// legitimately stalls — that regime has its own tests).
func TestBudgetSweepPressureAndDeterminism(t *testing.T) {
	sweep := func(parallel string) []byte {
		return report(t, "-sweep", "-sweep-regions", "8;6,6", "-sweep-payloads", "512,1024",
			"-sweep-protocols", "rrmp", "-budget", "16384", "-trials", "2", "-parallel", parallel, "-seed", "1")
	}
	serial := sweep("1")
	wide := sweep("8")
	if !bytes.Equal(serial, wide) {
		t.Fatal("budget sweep report bytes differ between -parallel 1 and -parallel 8")
	}

	var rep exp.Report
	if err := json.Unmarshal(serial, &rep); err != nil {
		t.Fatal(err)
	}
	var pressure float64
	for _, cell := range rep.Cells {
		if cell.Scenario.ByteBudget != 16384 {
			t.Fatalf("cell %q lost the scalar -budget", cell.Name)
		}
		if !strings.Contains(cell.Name, "payload=") || !strings.Contains(cell.Name, "budget=16384") {
			t.Fatalf("cell %q lacks byte-axis tokens", cell.Name)
		}
		p, ok := cell.Aggregate.Metric("pressure_evictions")
		if !ok {
			t.Fatalf("cell %q reports no pressure_evictions", cell.Name)
		}
		pressure += p.Mean
		sdr, ok := cell.Aggregate.Metric("survivor_delivery_ratio")
		if !ok {
			t.Fatalf("cell %q reports no survivor_delivery_ratio", cell.Name)
		}
		if sdr.Mean < 0.99 {
			t.Fatalf("cell %q survivor delivery %.4f under a 16 KB budget, want >= 0.99",
				cell.Name, sdr.Mean)
		}
	}
	if pressure == 0 {
		t.Fatal("no pressure evictions anywhere: the 16 KB budget never bound")
	}
}

// TestSweepReportMatchesGolden regenerates the pinned-seed miniature sweep
// in-process and compares it byte-for-byte against the committed golden,
// which was produced by the PR 2 engine *before* the hot-path rewrite
// (pooled event queue, batched netsim fan-out, indexed buffer, bitset gap
// tracking) and before the byte and protocol axes existed — so the sweep
// is pinned to the legacy axes (payload 0, budget 0, protocol rrmp): every
// cell must keep its pre-axis name, keys, and bytes. Regenerate
// deliberately with:
//
//	go run ./cmd/rrmp-sim -sweep -sweep-regions '8;6,6' -trials 2 \
//	    -sweep-payloads 0 -sweep-budgets 0 -sweep-protocols rrmp \
//	    -seed 1 -out cmd/rrmp-sim/testdata/sweep_golden.json -json >/dev/null
func TestSweepReportMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "sweep_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	// -shards is an execution knob like -parallel: the golden bytes must
	// survive the region-sharded engine at any width.
	for _, shards := range []int{1, 8} {
		got := report(t, "-sweep", "-sweep-regions", "8;6,6", "-sweep-payloads", "0", "-sweep-budgets", "0",
			"-sweep-protocols", "rrmp", "-trials", "2", "-parallel", "4", "-shards", fmt.Sprint(shards), "-seed", "1")
		// At -shards 8 the report gains the top-level exec note (the
		// miniature's lossy legacy cells fall back to serial); the golden
		// predates it, so strip the note — and pin that it appears exactly
		// when it should — before the byte comparison. The cells
		// themselves must match byte for byte.
		var rep exp.Report
		if err := json.Unmarshal(got, &rep); err != nil {
			t.Fatalf("-shards %d sweep report is not valid JSON: %v", shards, err)
		}
		if shards > 1 && rep.ExecNote == "" {
			t.Fatalf("-shards %d report lacks the exec note for its serial-fallback cells", shards)
		}
		if shards == 1 && rep.ExecNote != "" {
			t.Fatalf("-shards 1 report unexpectedly carries an exec note: %q", rep.ExecNote)
		}
		rep.ExecNote = ""
		canon, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		canon = append(canon, '\n')
		if !bytes.Equal(canon, golden) {
			t.Fatalf("-shards %d sweep report diverged from the pre-rewrite golden (testdata/sweep_golden.json); the hot-path rewrite must be behaviour-preserving", shards)
		}
	}
}

// TestScaleAggregatesByteIdenticalAcrossParallelism runs the -sweep-scale
// code path in-process on miniature tree cells at -parallel 1 and 8 and
// asserts the deterministic part of the report — everything except the
// machine-dependent wall_ms_per_trial / events_per_sec annotations — is
// byte-identical, extending the sweep determinism contract to the new
// scale cells.
func TestScaleAggregatesByteIdenticalAcrossParallelism(t *testing.T) {
	scale := func(parallel, shards string) []byte {
		t.Helper()
		blob := report(t, "-sweep-scale", "-sweep-trees", "4:2:120;4:3:150", "-trials", "2",
			"-parallel", parallel, "-shards", shards, "-seed", "1")
		var rep runner.ScaleReport
		if err := json.Unmarshal(blob, &rep); err != nil {
			t.Fatalf("scale report is not valid JSON: %v", err)
		}
		if rep.Schema != "rrmp-scale/v1" {
			t.Fatalf("schema %q, want rrmp-scale/v1", rep.Schema)
		}
		for i := range rep.Cells {
			if rep.Cells[i].Members == 0 || rep.Cells[i].Depth == 0 {
				t.Fatalf("cell %q lacks topology annotations", rep.Cells[i].Name)
			}
			rep.Cells[i].WallMsPerTrial = 0
			rep.Cells[i].EventsPerSec = 0
		}
		canon, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return canon
	}

	serial := scale("1", "1")
	wide := scale("8", "1")
	if !bytes.Equal(serial, wide) {
		t.Fatal("scale aggregates differ between -parallel 1 and -parallel 8")
	}
	sharded := scale("8", "4")
	if !bytes.Equal(serial, sharded) {
		t.Fatal("scale aggregates differ between -shards 1 and -shards 4")
	}
}

// TestTreeSingleRun drives the single-scenario mode on a depth-3 balanced
// tree (the -tree flag's path through Scenario.Tree).
func TestTreeSingleRun(t *testing.T) {
	out := mustCLI(t, "-tree", "3,3,130", "-msgs", "5", "-loss", "0.1", "-c", "4", "-seed", "2", "-horizon", "2s")
	if !strings.HasPrefix(out, "cell: regions=tree:b3d3m130 ") {
		t.Fatalf("tree cell output:\n%s", out)
	}
}

// TestParseTreeShapes covers both separators and the error paths.
func TestParseTreeShapes(t *testing.T) {
	got, err := parseTreeShapes("4:3:1000; 2:4:500")
	if err != nil {
		t.Fatal(err)
	}
	want := []exp.TreeShape{{Branch: 4, Levels: 3, Members: 1000}, {Branch: 2, Levels: 4, Members: 500}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("parseTreeShapes = %v", got)
	}
	if one, err := parseTreeShape("4,3,1000"); err != nil || one != want[0] {
		t.Fatalf("parseTreeShape = %v, %v", one, err)
	}
	for _, bad := range []string{"4:3", "a:b:c", "4,3,1000,9"} {
		if _, err := parseTreeShape(bad); err == nil {
			t.Fatalf("tree spec %q accepted", bad)
		}
	}
}

// TestSingleRunWithFaults drives the single-scenario mode end to end with
// crash and partition flags (cmd/ previously had zero test files; this
// covers the non-sweep path too).
func TestSingleRunWithFaults(t *testing.T) {
	out := mustCLI(t, "-regions", "10,10", "-msgs", "5", "-loss", "0.2", "-crash", "1", "-crash-recover", "500ms",
		"-partition-at", "400ms", "-partition-for", "300ms", "-c", "4", "-seed", "3", "-horizon", "3s")
	if !strings.Contains(out, "crash=1/500ms part=400ms/300ms") || !strings.Contains(out, "partition_drops") {
		t.Fatalf("fault cell output:\n%s", out)
	}
}

// TestSingleRunWithBudget drives the single-scenario mode end to end with
// a lognormal payload model and a binding byte budget.
func TestSingleRunWithBudget(t *testing.T) {
	out := mustCLI(t, "-regions", "10", "-msgs", "10", "-loss", "0.1", "-c", "4", "-payload", "1024",
		"-payload-model", "lognormal", "-budget", "4096", "-seed", "5", "-horizon", "3s")
	if !strings.Contains(out, "payload=lognormal:1024 budget=4096") || !strings.Contains(out, "pressure_evictions") {
		t.Fatalf("budget cell output:\n%s", out)
	}
}

// TestParseInts covers the byte-axis list parser.
func TestParseInts(t *testing.T) {
	got, err := parseInts("0, 1024,8192")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1024 || got[2] != 8192 {
		t.Fatalf("parseInts = %v", got)
	}
	if _, err := parseInts("12,x"); err == nil {
		t.Fatal("bogus int accepted")
	}
	// A stray minus sign must error loudly, not silently run the cell as
	// an unbudgeted legacy cell under a budget-looking flag line.
	if _, err := parseInts("-8192"); err == nil {
		t.Fatal("negative value accepted")
	}
	if code, _, _ := cli("-sweep", "-budget", "-1", "-out", ""); code == 0 {
		t.Fatal("negative -budget accepted by -sweep")
	}
	if code, _, _ := cli("-regions", "4", "-payload", "-1", "-msgs", "1"); code == 0 {
		t.Fatal("negative -payload accepted by the single trial")
	}
}

// TestProtocolSweepMiniature is the protocol-axis golden miniature: a
// -sweep-protocols matrix crossing faults and a budget must be
// byte-identical at -parallel 1 and 8, append every rmtp cell after every
// rrmp cell, and keep the per-protocol key disciplines intact.
func TestProtocolSweepMiniature(t *testing.T) {
	sweep := func(parallel string) []byte {
		return report(t, "-sweep", "-sweep-regions", "8;6,6", "-sweep-payloads", "0,512", "-sweep-budgets", "0",
			"-sweep-protocols", "rrmp,rmtp", "-trials", "2", "-parallel", parallel, "-seed", "1")
	}
	serial := sweep("1")
	wide := sweep("8")
	if !bytes.Equal(serial, wide) {
		t.Fatal("protocol sweep report bytes differ between -parallel 1 and -parallel 8")
	}

	var rep exp.Report
	if err := json.Unmarshal(serial, &rep); err != nil {
		t.Fatal(err)
	}
	firstRMTP := -1
	for i, cell := range rep.Cells {
		if cell.Scenario.Protocol == "rmtp" {
			if firstRMTP < 0 {
				firstRMTP = i
			}
		} else if firstRMTP >= 0 {
			t.Fatalf("rrmp cell %q after the rmtp family", cell.Name)
		}
	}
	if firstRMTP <= 0 {
		t.Fatal("protocol sweep produced no rmtp family, or no rrmp prefix")
	}
	// The rmtp family crosses the same topology × loss × churn × fault ×
	// byte matrix with the 2-policy axis collapsed, so it is exactly half
	// the rrmp family.
	if got, want := len(rep.Cells)-firstRMTP, firstRMTP/2; got != want {
		t.Fatalf("rmtp family has %d cells, want %d (policy axis collapsed)", got, want)
	}
	for _, cell := range rep.Cells[firstRMTP:] {
		if _, ok := cell.Aggregate.Metric("delivery_ratio"); !ok {
			t.Fatalf("rmtp cell %q reports no delivery_ratio", cell.Name)
		}
		if _, ok := cell.Aggregate.Metric("buffer_integral_msgsec"); !ok {
			t.Fatalf("rmtp cell %q reports no buffer integral", cell.Name)
		}
	}
}

// TestSingleRunRMTP drives the -protocol rmtp single-scenario mode end to
// end, faults included.
func TestSingleRunRMTP(t *testing.T) {
	// -policy is ignored by the baseline: rmtp cells run the repair server.
	out := mustCLI(t, "-protocol", "rmtp", "-regions", "10,10", "-msgs", "5", "-loss", "0.2", "-crash", "1",
		"-crash-recover", "500ms", "-policy", "fixed", "-seed", "3", "-horizon", "3s")
	if !strings.Contains(out, "proto=rmtp policy=server") || !strings.Contains(out, "nak_sent") {
		t.Fatalf("rmtp cell output:\n%s", out)
	}
	if code, _, _ := cli("-protocol", "bogus", "-regions", "4", "-msgs", "1"); code == 0 {
		t.Fatal("bogus -protocol accepted")
	}
	// The baseline has no tracer hook.
	if code, _, stderr := cli("-protocol", "rmtp", "-regions", "4", "-msgs", "1", "-trace"); code == 0 || !strings.Contains(stderr, "tracer") {
		t.Fatalf("-protocol rmtp -trace: exit %d, stderr %q", code, stderr)
	}
}

// TestTraceOutWritesFile pins the -trace-out bugfix: traces route through
// the cluster Tracer hook into the named file instead of unconditionally
// spamming stderr.
func TestTraceOutWritesFile(t *testing.T) {
	for _, workload := range []string{"", "clients=2,msgs=4,arrival=constant,gap=10ms"} {
		path := filepath.Join(t.TempDir(), "trace.log")
		args := []string{"-regions", "6", "-msgs", "3", "-gap", "10ms", "-loss", "0.3", "-c", "4",
			"-seed", "4", "-horizon", "2s", "-trace-out", path}
		if workload != "" {
			// Workload cells run on the same traced kernel.
			args = append(args, "-workload", workload)
		}
		mustCLI(t, args...)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(blob, []byte("DELIVER")) {
			t.Fatalf("workload %q: trace file has no DELIVER events; got %d bytes", workload, len(blob))
		}
	}
}

// TestParseWorkloadSpec covers the -workload flag parser: presets,
// key=val specs (windows included), and the error paths.
func TestParseWorkloadSpec(t *testing.T) {
	if spec, err := parseWorkloadSpec("mc"); err != nil || spec.Clients != 8 {
		t.Fatalf("preset mc = %+v, %v", spec, err)
	}
	if spec, err := parseWorkloadSpec("vod"); err != nil || spec.LateJoinFrac != 0.25 {
		t.Fatalf("preset vod = %+v, %v", spec, err)
	}
	spec, err := parseWorkloadSpec("clients=4,msgs=32,arrival=burst,gap=200ms,burst-len=4,burst-gap=5ms,window=0s-1s:4,window=2s-4s:0.5,size-model=lognormal,size-mean=512,zipf=1.1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Clients != 4 || spec.Msgs != 32 || spec.BurstLen != 4 ||
		spec.Gap != 200*time.Millisecond || len(spec.Windows) != 2 ||
		spec.Windows[1].Factor != 0.5 || spec.SizeMean != 512 {
		t.Fatalf("parsed spec = %+v", spec)
	}
	for _, bad := range []string{
		"bogus-preset",                  // not key=val, not a preset
		"clients=x",                     // bad int
		"clients=4",                     // msgs missing -> Validate fails
		"clients=4,msgs=8,arrival=warp", // unknown arrival
		"clients=4,msgs=8,window=1s:4",  // malformed window
		"clients=4,msgs=8,frobnicate=1", // unknown key
		"clients=2,msgs=4,arrival=constant,gap=10ms,zipf=NaN",          // NaN skew
		"clients=2,msgs=4,arrival=constant,gap=10ms,window=0s-1s:NaN",  // NaN factor
		"clients=2,msgs=4,arrival=constant,gap=10ms,late-frac=NaN",     // NaN fraction
		"clients=2,msgs=4,arrival=constant,gap=10ms,zipf=+Inf",         // infinite skew
		"clients=2,msgs=4,arrival=constant,gap=10ms,window=0s-1s:+Inf", // infinite factor
	} {
		if _, err := parseWorkloadSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestWorkloadRecordReplayByteIdentical is the CLI trace acceptance gate:
// a -workload run that records its timeline and a second run replaying
// that file print byte-identical metrics.
func TestWorkloadRecordReplayByteIdentical(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "mc.trace")
	base := []string{"-regions", "10,10", "-loss", "0.1", "-loss-mode", "hash", "-workload", "mc", "-seed", "7"}
	recorded := mustCLI(t, append(base, "-trace-record", trace)...)
	blob, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, []byte("rrmp-trace/v1\n")) {
		t.Fatalf("trace lacks the schema header: %q", blob[:20])
	}
	replayed := mustCLI(t, append(base, "-trace-replay", trace)...)
	if recorded != replayed {
		t.Fatalf("replay output differs from recording run:\n--- recorded ---\n%s--- replayed ---\n%s",
			recorded, replayed)
	}
	if !strings.Contains(recorded, "wl=poisson:c8:m64") {
		t.Fatalf("output lacks the workload token:\n%s", recorded)
	}
	// A truncated trace must be rejected loudly, not replayed short.
	if err := os.WriteFile(trace, blob[:len(blob)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := cli(append(base, "-trace-replay", trace)...); code == 0 {
		t.Fatal("truncated trace accepted")
	}
}

// TestSweepWorkloadFamilyAppends pins the default -sweep shape: the
// workload family's cells (18) and the adaptive-policy family's (6)
// append after every cell of the base matrix, carry the wl= token and
// the workload-only keys, and leave the base cells' names and key sets
// untouched.
func TestSweepWorkloadFamilyAppends(t *testing.T) {
	// Shrink the base matrix; the families keep their real shape. (A
	// -sweep-regions flag would count as customizing and drop them, so
	// the standing sweep list is built directly.)
	sc := *scenarioFlags(flag.NewFlagSet("test", flag.PanicOnError))
	sweeps := sweepsFor(sc, &exp.Sweep{Regions: [][]int{{6}}}, true, false, true)
	rep, err := runner.RunSweeps(exp.Options{Trials: 1, BaseSeed: 1}, sweeps...)
	if err != nil {
		t.Fatal(err)
	}
	firstWL := -1
	for i, cell := range rep.Cells {
		if cell.Scenario.Workload != nil {
			if firstWL < 0 {
				firstWL = i
			}
			if !strings.Contains(cell.Name, " wl=") {
				t.Fatalf("workload cell %q lacks the wl token", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("clients"); !ok {
				t.Fatalf("workload cell %q reports no clients", cell.Name)
			}
		} else {
			if firstWL >= 0 {
				t.Fatalf("legacy cell %q after the workload family began", cell.Name)
			}
			if strings.Contains(cell.Name, " wl=") {
				t.Fatalf("legacy cell %q carries a wl token", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("clients"); ok {
				t.Fatalf("legacy cell %q leaked the clients key", cell.Name)
			}
		}
	}
	if firstWL < 0 || len(rep.Cells)-firstWL != 24 {
		t.Fatalf("workload+adaptive families have %d cells starting at %d; want 18+6 appended",
			len(rep.Cells)-firstWL, firstWL)
	}
	adaptiveCells := 0
	for _, cell := range rep.Cells[firstWL:] {
		if strings.Contains(cell.Name, " policy=adaptive") {
			adaptiveCells++
		}
	}
	if adaptiveCells != 2 {
		t.Fatalf("adaptive family has %d adaptive cells, want 2", adaptiveCells)
	}
	vodCells := 0
	for _, cell := range rep.Cells[firstWL:] {
		if cell.Scenario.Workload.LateJoinFrac > 0 {
			vodCells++
			if _, ok := cell.Aggregate.Metric("late_joiners"); !ok {
				t.Fatalf("VoD cell %q reports no late_joiners", cell.Name)
			}
		}
	}
	if vodCells != 6 {
		t.Fatalf("workload family has %d VoD cells, want 6", vodCells)
	}
}

// TestSweepWorkloadAxisPinned covers -workload in multi-trial mode: the
// flag pins the sweep's workload axis to that one spec.
func TestSweepWorkloadAxisPinned(t *testing.T) {
	blob := report(t, "-regions", "8,8", "-loss", "0.1", "-loss-mode", "hash", "-msgs", "10", "-horizon", "3s",
		"-trials", "2", "-seed", "1", "-workload", "bursty")
	var rep exp.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("pinned workload cell sweep has %d cells, want 1", len(rep.Cells))
	}
	cell := rep.Cells[0]
	if cell.Scenario.Workload == nil || cell.Scenario.Workload.Arrival != "burst" {
		t.Fatalf("cell %q lost the -workload spec", cell.Name)
	}
	if p, ok := cell.Aggregate.Metric("publishes"); !ok || p.Mean != 48 {
		t.Fatalf("cell %q publishes = %+v, want 48", cell.Name, p)
	}
}

// TestParseDurations covers the sweep-partitions axis parser.
func TestParseDurations(t *testing.T) {
	got, err := parseDurations("0, 1s,250ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1e9 || got[2] != 250e6 {
		t.Fatalf("parseDurations = %v", got)
	}
	if _, err := parseDurations("1s,bogus"); err == nil {
		t.Fatal("bogus duration accepted")
	}
}

// TestListPoliciesRoster smoke-tests the -list-policies listing against
// the registry: every canonical kind, alias and parameter (with its
// default) must appear, so the flag and the registry cannot drift apart.
func TestListPoliciesRoster(t *testing.T) {
	var buf bytes.Buffer
	printPolicyRoster(&buf)
	out := buf.String()
	for _, info := range policy.Known() {
		if !strings.Contains(out, info.Kind) || !strings.Contains(out, info.Summary) {
			t.Fatalf("roster lacks kind %q or its summary:\n%s", info.Kind, out)
		}
		for _, alias := range info.Aliases {
			if !strings.Contains(out, alias) {
				t.Fatalf("roster lacks alias %q of %q:\n%s", alias, info.Kind, out)
			}
		}
		for _, p := range info.Params {
			if !strings.Contains(out, p.Name+"=") || !strings.Contains(out, p.Default) {
				t.Fatalf("roster lacks parameter %q (default %q) of %q:\n%s",
					p.Name, p.Default, info.Kind, out)
			}
		}
	}
	if lines := strings.Count(out, "\n"); lines < len(policy.Known()) {
		t.Fatalf("roster has %d lines for %d kinds", lines, len(policy.Known()))
	}
}

// TestFitnessTableDisplayOnly pins -fitness-weights as pure display: the
// table renders one ranked row per cell and rejects malformed weight
// specs, and the report written to -out is byte-identical with and
// without the flag.
func TestFitnessTableDisplayOnly(t *testing.T) {
	args := []string{"-regions", "8", "-loss", "0.2", "-msgs", "5", "-horizon", "2s", "-trials", "2", "-seed", "1"}
	plain := report(t, args...)
	scoredPath := filepath.Join(t.TempDir(), "scored.json")
	table := mustCLI(t, append(args, "-out", scoredPath, "-fitness-weights", "default")...)
	scored, err := os.ReadFile(scoredPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, scored) {
		t.Fatal("-fitness-weights changed the report bytes")
	}
	if !strings.Contains(table, "fitness ranking") || !strings.Contains(table, "policy=two-phase") {
		t.Fatalf("fitness table lacks ranking or cell name:\n%s", table)
	}
	var rep exp.Report
	if err := json.Unmarshal(plain, &rep); err != nil {
		t.Fatal(err)
	}
	if err := printFitness(io.Discard, rep, "delivery=x"); err == nil {
		t.Fatal("malformed weight spec accepted")
	}
	if err := printFitness(io.Discard, rep, "bogus=1"); err == nil {
		t.Fatal("unknown weight key accepted")
	}
}

// TestSingleTrialIsRunScenario pins the one-scenario path: a single trial
// of a lossy rrmp cell prints exactly RunScenario's metrics for the
// flags' scenario and seed, and -trials reports the same cell name.
func TestSingleTrialIsRunScenario(t *testing.T) {
	sc := exp.Scenario{Regions: []int{30, 30}, Loss: 0.2, Churn: 1, Crash: 1, CrashRecover: 300 * time.Millisecond,
		Policy: "two-phase", FixedHold: 500 * time.Millisecond, C: 6, Lambda: 1,
		Msgs: 20, Gap: 20 * time.Millisecond, Horizon: 5 * time.Second}
	m, err := runner.RunScenario(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("cell: %s (seed 3)\n", sc.Name())
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want += fmt.Sprintf("  %-28s %g\n", k, m[k])
	}
	args := []string{"-regions", "30,30", "-loss", "0.2", "-churn", "1", "-crash", "1", "-crash-recover", "300ms", "-seed", "3"}
	if got := mustCLI(t, args...); got != want {
		t.Fatalf("single trial output differs from RunScenario:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	var rep exp.Report
	if err := json.Unmarshal(report(t, append(args, "-trials", "2")...), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Name != sc.Name() {
		t.Fatalf("-trials 2 reports %d cells, first %q; want one cell %q", len(rep.Cells), rep.Cells[0].Name, sc.Name())
	}
}

// TestInvalidInputExits pins the one input check at the CLI: inputs that
// used to hang (a negative horizon is the engine's run-to-exhaustion
// sentinel), panic (a negative message count) or run silently now exit
// with an error in every mode.
func TestInvalidInputExits(t *testing.T) {
	for _, args := range [][]string{
		{"-regions", "10", "-horizon", "-1s"},
		{"-msgs", "-5"},
		{"-loss", "1.5"},
		{"-loss", "NaN"},
		{"-crash", "NaN"},
		{"-churn", "-1"},
		{"-loss-mode", "shared"},
		{"-trials", "2", "-msgs", "-1", "-out", ""},
		{"-sweep", "-sweep-regions", "6", "-gap", "-1ms", "-out", ""},
		{"-sweep", "-sweep-losses", "0.1,NaN", "-out", ""},
	} {
		done := make(chan int, 1)
		go func() {
			code, _, _ := cli(args...)
			done <- code
		}()
		select {
		case code := <-done:
			if code == 0 {
				t.Errorf("rrmp-sim %s: exit 0, want an error", strings.Join(args, " "))
			}
		case <-time.After(time.Minute):
			t.Fatalf("rrmp-sim %s: still running after a minute", strings.Join(args, " "))
		}
	}
}

// FuzzWorkloadSpec fuzzes the -workload grammar: parsing never panics,
// and an accepted spec materializes a valid timeline with exactly
// spec.Msgs events.
func FuzzWorkloadSpec(f *testing.F) {
	for _, seed := range []string{
		"mc", "bursty", "vod",
		"clients=4,msgs=32,arrival=burst,gap=200ms,burst-len=4,burst-gap=5ms,window=0s-1s:4,window=2s-4s:0.5,size-model=lognormal,size-mean=512,zipf=1.1",
		"clients=1,msgs=6,arrival=constant,gap=20ms,late-frac=0.5,late-at=1s,late-spread=500ms",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := parseWorkloadSpec(s)
		if err != nil {
			return
		}
		// Bound the materialization, not the grammar.
		if spec.Msgs > 1<<12 || spec.Clients > 1<<8 {
			t.Skip()
		}
		tl, err := spec.Timeline(1)
		if err != nil {
			t.Fatalf("accepted spec %q does not materialize: %v", s, err)
		}
		if !tl.Valid() || len(tl) != spec.Msgs {
			t.Fatalf("accepted spec %q: %d events (valid=%v), want %d", s, len(tl), tl.Valid(), spec.Msgs)
		}
	})
}
