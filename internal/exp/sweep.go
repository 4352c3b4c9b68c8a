package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	policyspec "repro/internal/policy"
	"repro/internal/workload"
)

// TreeShape describes a balanced multi-level recovery hierarchy: Levels
// levels of regions, every inner region with Branch children, and Members
// total group members spread evenly across the regions (remainder to the
// regions nearest the root). It is the topology axis the scale experiments
// sweep: hierarchy depth and fan-out dominate repair cost in deep trees, so
// cells are named by (members, depth, branch) rather than region vectors.
type TreeShape struct {
	Branch  int `json:"branch"`
	Levels  int `json:"levels"`
	Members int `json:"members"`
}

// Token returns the shape's stable name token, e.g. "tree:b4d3m1000".
func (t TreeShape) Token() string {
	return fmt.Sprintf("tree:b%dd%dm%d", t.Branch, t.Levels, t.Members)
}

// Scenario is one fully specified cell of a sweep: protocol, topology,
// fault model, churn, buffering policy, and workload. Durations marshal as
// nanoseconds.
type Scenario struct {
	// Protocol selects the recovery protocol the cell runs: "" or "rrmp"
	// is the paper's RRMP engine (the historic behaviour, omitted from
	// JSON so pre-axis cells keep their bytes); "rmtp" is the tree-based
	// repair-server baseline (§1, §6), driven through the identical
	// workload, fault and byte-budget machinery.
	Protocol string `json:"protocol,omitempty"`
	// Regions are the region sizes (chain hierarchy unless Star).
	Regions []int `json:"regions"`
	// Star attaches every region after the first directly to the sender's
	// region (the paper's Figure 1 shape).
	Star bool `json:"star,omitempty"`
	// Tree, when non-nil, selects a balanced multi-level hierarchy instead
	// of the Regions vector (which is then ignored).
	Tree *TreeShape `json:"tree,omitempty"`
	// Loss is the independent DATA loss probability (recovery traffic stays
	// lossless, as in §4).
	Loss float64 `json:"loss"`
	// LossMode selects how loss draws are streamed: "" is the legacy model
	// (one shared rng consumed in global send order — deterministic, but
	// only on a single event loop), "hash" draws per-sender counter-hash
	// streams (netsim.HashLoss), which shard loops reproduce exactly and
	// so can run parallel. The mode is part of the cell's identity (it
	// changes which packets drop), hence serialized; legacy cells omit it.
	LossMode string `json:"loss_mode,omitempty"`
	// Burst switches to a Gilbert–Elliott burst channel at roughly Loss.
	Burst bool `json:"burst,omitempty"`
	// Churn is the expected number of graceful leaves per second, drawn as
	// a Poisson process over non-sender members (§3.2's handoff path).
	Churn float64 `json:"churn"`
	// Crash is the expected number of crash faults per second, drawn as an
	// independent Poisson process over non-sender members. Crashed members
	// stop without handoff and their traffic vanishes, forcing §3.3's
	// search path (and the failure detector) to carry recovery.
	Crash float64 `json:"crash,omitempty"`
	// CrashRecover, when positive, brings each crashed member back after
	// this downtime with its protocol state intact; it then re-recovers
	// every gap it missed. Zero means crash-stop: the member never returns.
	CrashRecover time.Duration `json:"crash_recover_ns,omitempty"`
	// PartitionAt, when positive, splits the group into two halves at that
	// instant (along region boundaries when there are multiple regions;
	// otherwise down the middle of the member list) and drops every packet
	// crossing the cut.
	PartitionAt time.Duration `json:"partition_at_ns,omitempty"`
	// PartitionDur is how long the partition lasts before a deterministic
	// heal event reconnects the halves. Zero with PartitionAt set means
	// the partition never heals within the run.
	PartitionDur time.Duration `json:"partition_dur_ns,omitempty"`
	// Policy is the buffering policy spec — a canonical registry kind
	// (two-phase|fixed|all|hash|adaptive), a historic alias, or a
	// parameterized spec like "adaptive:tmin=20ms,tmax=200ms" (see
	// internal/policy). RMTP cells carry the placeholder "server".
	Policy string `json:"policy"`
	// FixedHold is the retention for Policy "fixed" (default 500 ms).
	FixedHold time.Duration `json:"fixed_hold_ns,omitempty"`
	// C, Lambda and RepairBackoff override the corresponding protocol
	// parameters when positive (zero keeps the paper's §4 defaults).
	C             float64       `json:"c,omitempty"`
	Lambda        float64       `json:"lambda,omitempty"`
	RepairBackoff time.Duration `json:"repair_backoff_ns,omitempty"`
	// Msgs, Gap and Horizon define the publish workload and run length.
	Msgs    int           `json:"msgs"`
	Gap     time.Duration `json:"gap_ns"`
	Horizon time.Duration `json:"horizon_ns"`
	// PayloadBytes is the per-message payload size in bytes (the mean,
	// under a randomized PayloadModel). Zero keeps the historic fixed
	// 256-byte payload every pre-axis experiment published.
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// PayloadModel selects the payload-size model ("fixed" when empty;
	// "uniform" and "lognormal" draw per-message sizes around
	// PayloadBytes — see internal/workload's size models).
	PayloadModel string `json:"payload_model,omitempty"`
	// ByteBudget caps every member's buffer at this many payload bytes
	// (rrmp.Params.ByteBudget): stores past the cap displace older
	// entries, short-term first. Zero means unlimited.
	ByteBudget int `json:"byte_budget,omitempty"`
	// Workload, when non-nil, replaces the single-sender constant-gap
	// publish stream (Msgs/Gap/PayloadBytes/PayloadModel) with a
	// multi-client workload.Spec: N publishers, per-client arrival
	// processes, Zipf volume skew, and optionally the VoD late-join
	// regime. Nil keeps the historic shape, omitted from JSON so legacy
	// cells keep their bytes.
	Workload *workload.Spec `json:"workload,omitempty"`
	// Shards is an execution knob, not part of the cell's identity: run
	// the trial on up to this many region-sharded event loops (<= 1 means
	// width 1). Aggregates are byte-identical at any value — the
	// same contract as Options.Parallel — so it is excluded from JSON and
	// from Name.
	Shards int `json:"-"`
}

// Name returns the cell's stable human-readable identifier.
func (s Scenario) Name() string {
	var topo string
	if s.Tree != nil {
		topo = s.Tree.Token()
	} else {
		sizes := make([]string, len(s.Regions))
		for i, n := range s.Regions {
			sizes[i] = fmt.Sprint(n)
		}
		shape := ""
		if s.Star {
			shape = "star:"
		}
		topo = shape + strings.Join(sizes, "+")
	}
	lossTok := fmt.Sprintf("%.2f", s.Loss)
	if s.LossMode != "" {
		// The stream mode changes which packets drop, so it is part of the
		// cell's identity; legacy cells keep their bare numeric token.
		lossTok += ":" + s.LossMode
	}
	name := fmt.Sprintf("regions=%s loss=%s churn=%.2g", topo, lossTok, s.Churn)
	// Fault tokens appear only when the fault is present, so cells from
	// crash-free sweeps keep their historical names.
	if s.Crash > 0 {
		name += fmt.Sprintf(" crash=%.2g", s.Crash)
		if s.CrashRecover > 0 {
			name += fmt.Sprintf("/%v", s.CrashRecover)
		}
	}
	if s.PartitionAt > 0 {
		if s.PartitionDur > 0 {
			name += fmt.Sprintf(" part=%v/%v", s.PartitionAt, s.PartitionDur)
		} else {
			name += fmt.Sprintf(" part=%v/open", s.PartitionAt)
		}
	}
	// Payload and budget tokens appear only when the byte axes are
	// engaged, so cells from pre-axis sweeps keep their historical names.
	if s.PayloadBytes > 0 || s.PayloadModel != "" {
		bytes := s.PayloadBytes
		if bytes <= 0 {
			bytes = 256
		}
		if s.PayloadModel != "" && s.PayloadModel != "fixed" {
			name += fmt.Sprintf(" payload=%s:%d", s.PayloadModel, bytes)
		} else {
			name += fmt.Sprintf(" payload=%d", bytes)
		}
	}
	if s.ByteBudget > 0 {
		name += fmt.Sprintf(" budget=%d", s.ByteBudget)
	}
	// The workload token appears only for multi-client cells, so every
	// single-sender cell keeps its historical name.
	if s.Workload != nil {
		name += " wl=" + s.Workload.Token()
	}
	// The protocol token appears only for non-RRMP cells, so every
	// historical cell keeps its name.
	if s.Protocol != "" && s.Protocol != "rrmp" {
		name += " proto=" + s.Protocol
	}
	return name + " policy=" + s.Policy
}

// Validate rejects a scenario no trial can run: NaN, negative or
// out-of-range numeric fields, and unknown protocols or loss modes. Zero
// values stay valid — they mean "default" or "none" — so a partially
// filled scenario (a Sweep's Base) validates too. A Workload must pass its
// own Validate; policy specs are checked by the kernel that interprets
// them.
func (s Scenario) Validate() error {
	switch s.Protocol {
	case "", "rrmp", "rmtp":
	default:
		return fmt.Errorf("exp: unknown protocol %q (want rrmp or rmtp)", s.Protocol)
	}
	switch s.LossMode {
	case "", "hash":
	default:
		return fmt.Errorf("exp: unknown loss mode %q (want '' or 'hash')", s.LossMode)
	}
	if !(s.Loss >= 0 && s.Loss <= 1) {
		return fmt.Errorf("exp: loss %g outside [0,1]", s.Loss)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"churn", s.Churn}, {"crash", s.Crash}, {"c", s.C}, {"lambda", s.Lambda}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("exp: %s %g is not a finite non-negative rate", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    time.Duration
	}{
		{"gap", s.Gap}, {"horizon", s.Horizon}, {"crash-recover", s.CrashRecover},
		{"partition-at", s.PartitionAt}, {"partition-dur", s.PartitionDur},
		{"fixed-hold", s.FixedHold}, {"repair-backoff", s.RepairBackoff},
	} {
		if f.v < 0 {
			return fmt.Errorf("exp: negative %s %v", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"msgs", s.Msgs}, {"payload", s.PayloadBytes}, {"budget", s.ByteBudget}} {
		if f.v < 0 {
			return fmt.Errorf("exp: negative %s %d", f.name, f.v)
		}
	}
	if s.Workload != nil {
		return s.Workload.Validate()
	}
	return nil
}

// Sweep declares a scenario matrix: a Base scenario plus axis lists.
// Expand starts every cell from Base and takes the cartesian product of
// the axes, each value overwriting its field; an empty axis keeps Base's
// own value, so Sweep{Base: sc} expands to exactly sc (after the defaults
// Expand documents).
type Sweep struct {
	// Base is the scenario every cell starts from: it carries the fields
	// no axis sweeps (Star, LossMode, Burst, CrashRecover, FixedHold, C,
	// Lambda, RepairBackoff, Gap, PayloadModel, Shards, ...) and the value
	// of every axis left empty. Its PartitionAt is where partition axis
	// episodes begin (default Horizon/4).
	Base Scenario `json:"base"`
	// Regions lists the region-size vectors to sweep.
	Regions [][]int `json:"regions,omitempty"`
	// Trees lists balanced multi-level hierarchies to sweep in addition to
	// Regions. Tree cells expand after all Regions cells, so adding a tree
	// axis never moves legacy cell positions. With both topology axes
	// empty, Base's topology applies (a single 100-member region when
	// Base has none).
	Trees []TreeShape `json:"trees,omitempty"`
	// Losses lists DATA loss probabilities.
	Losses []float64 `json:"losses,omitempty"`
	// Churns lists graceful-leave rates in members/second.
	Churns []float64 `json:"churns,omitempty"`
	// Crashes lists crash-fault rates in members/second.
	Crashes []float64 `json:"crashes,omitempty"`
	// Partitions lists partition episode durations; 0 means no partition.
	// A cell with duration d > 0 partitions at Base.PartitionAt and heals
	// d later.
	Partitions []time.Duration `json:"partitions_ns,omitempty"`
	// Policies lists buffering policies.
	Policies []string `json:"policies,omitempty"`
	// PayloadSizes lists payload sizes in bytes to sweep; 0 means the
	// historic fixed 256. Together with Budgets this is the outermost
	// expansion axis, defaults first, so appending non-default sizes to a
	// matrix never moves its legacy cells.
	PayloadSizes []int `json:"payload_sizes,omitempty"`
	// Budgets lists per-member buffer byte budgets to sweep; 0 means
	// unlimited.
	Budgets []int `json:"budgets,omitempty"`
	// Protocols lists recovery protocols to sweep ("rrmp"/"" and "rmtp").
	// The protocol axis is the outermost expansion dimension with RRMP
	// first, so adding "rmtp" to a matrix appends a whole baseline family
	// after every existing cell without moving any of them. RMTP cells
	// collapse the Policies axis to the single value "server": the
	// baseline's buffering discipline is the repair server itself
	// (buffer-all under ACK trimming), so RRMP policy names do not apply.
	Protocols []string `json:"protocols,omitempty"`
	// Workloads lists multi-client workload specs to sweep; nil entries
	// mean the legacy single-sender stream. The workload axis is the
	// OUTERMOST expansion dimension, so adding workloads to a matrix
	// appends whole families after every existing cell without moving (or
	// re-byting) any of them.
	Workloads []*workload.Spec `json:"workloads,omitempty"`
	// Msgs and Horizon, when positive, override Base.Msgs and
	// Base.Horizon. They predate Base and stay only because the benchmark
	// harness's tests still construct sweeps with them; new code sets
	// Base.
	Msgs    int           `json:"msgs,omitempty"`
	Horizon time.Duration `json:"horizon_ns,omitempty"`
}

// DefaultSweep returns the standing benchmark matrix rrmp-sim runs when no
// dimensions are given: 3 topologies × 2 loss rates × 2 churn rates × 2
// crash rates × 2 partition settings × 2 policies, crossed with the byte
// axes' payload {historic 256, 1 KB} × budget {unlimited, 8 KB} family,
// all of it run under both protocols. The RRMP family leads and the
// default (0, 0) byte combination leads within it, so the first 96 cells
// are the historical matrix unchanged, cells 97–384 are the byte-axis
// families (headroom, byte-visible, and genuine-pressure regimes), and
// the RMTP repair-server baseline appends after cell 384 (192 cells: the
// policy axis collapses to "server"). The two-region vector exists so
// partition cells cut along a region boundary. BENCH_sweep.json tracks
// this matrix across PRs — it is the repo's machine-tracked RRMP-vs-RMTP
// record across the full fault matrix.
func DefaultSweep() Sweep {
	return Sweep{
		Regions:      [][]int{{50}, {100}, {30, 30}},
		Losses:       []float64{0.05, 0.20},
		Churns:       []float64{0, 1},
		Crashes:      []float64{0, 1},
		Partitions:   []time.Duration{0, time.Second},
		Policies:     []string{"two-phase", "fixed"},
		PayloadSizes: []int{0, 1024},
		Budgets:      []int{0, 8 * 1024},
		Protocols:    []string{"rrmp", "rmtp"},
	}
}

// ScaleSweep returns the standing scale matrix (rrmp-sim -sweep-scale): a
// members × depth grid of balanced branch-4 trees under the default loss
// rate, with and without churn. BENCH_scale.json tracks this matrix — and
// with it the simulator's wall-clock and events/sec trajectory — across
// PRs. Levels counts region levels, so levels L is hierarchy depth L-1
// parent hops; the paper's deep-hierarchy regime starts at 3 levels.
func ScaleSweep() Sweep {
	return Sweep{
		Trees: []TreeShape{
			{Branch: 4, Levels: 2, Members: 1000},
			{Branch: 4, Levels: 3, Members: 1000},
			{Branch: 4, Levels: 4, Members: 1000},
			{Branch: 4, Levels: 2, Members: 2000},
			{Branch: 4, Levels: 3, Members: 2000},
			{Branch: 4, Levels: 4, Members: 2000},
			{Branch: 4, Levels: 2, Members: 5000},
			{Branch: 4, Levels: 3, Members: 5000},
			{Branch: 4, Levels: 4, Members: 5000},
		},
		Losses:   []float64{0.05},
		Churns:   []float64{0, 1},
		Policies: []string{"two-phase"},
	}
}

// ScaleSweepXL returns the extra-large scale rows appended after ScaleSweep
// in BENCH_scale.json: 10k members on the branch-4 shape and 100k members
// on a branch-8 4-level tree (both hierarchy depth 3 — the branch widens at
// 100k so per-region membership views stay bounded). XL cells use hash-mode
// loss so the sharded engine can run them parallel; they are new cells, so
// the mode changes no existing bytes.
//
// The XL workload is a trimmed burst probe — 10 messages over a 2 s horizon
// instead of the standing matrix's 20/5 s — sized so one 100k-member trial
// (~4.2M events) finishes inside the 10 s scale bound on a single core. The
// trim only shortens the tail: repair convergence at these shapes completes
// well inside the horizon, so delivery ratios match the full-length run to
// four digits (0.9998 measured on both).
func ScaleSweepXL() Sweep {
	return Sweep{
		Trees: []TreeShape{
			{Branch: 4, Levels: 4, Members: 10000},
			{Branch: 8, Levels: 4, Members: 100000},
		},
		Base:     Scenario{LossMode: "hash", Msgs: 10, Horizon: 2 * time.Second},
		Losses:   []float64{0.05},
		Churns:   []float64{0, 1},
		Policies: []string{"two-phase"},
	}
}

// ScaleSweep1M returns the final rung of the scale ladder, appended after
// ScaleSweepXL in BENCH_scale.json: one million members on a branch-16
// 4-level tree (hierarchy depth 3, ~229 members per region across 4369
// regions). The row runs the XL burst probe under hash-mode Gilbert–
// Elliott loss (HashBurstLoss) — the loss regime of wireless multicast —
// proving both that burst cells run on the sharded engine and that
// cluster construction no longer dominates at this size. It is a separate
// sweep rather than a Burst flag on ScaleSweepXL because Burst is part of
// cell identity: flipping it on the XL sweep would re-byte the committed
// 10k/100k rows.
func ScaleSweep1M() Sweep {
	return Sweep{
		Trees: []TreeShape{
			{Branch: 16, Levels: 4, Members: 1000000},
		},
		Base:     Scenario{LossMode: "hash", Burst: true, Msgs: 10, Horizon: 2 * time.Second},
		Losses:   []float64{0.05},
		Churns:   []float64{0},
		Policies: []string{"two-phase"},
	}
}

// MultiClientWorkload is the workload family's many-publishers cell: 8
// concurrent Poisson publishers with Zipf-1.1 volume skew (the busiest
// client publishes ~25 of the 64 messages, the quietest ~3) and
// heavy-tailed lognormal payloads — the ServeGen-style shape where
// per-source reception state and byte accounting both matter.
func MultiClientWorkload() *workload.Spec {
	return &workload.Spec{
		Clients: 8, Msgs: 64,
		Arrival: workload.ArrivalPoisson, Gap: 100 * time.Millisecond,
		ZipfS:     1.1,
		SizeModel: workload.SizeLognormal, SizeMean: 512,
	}
}

// BurstyWorkload is the workload family's diurnal-burst cell: 4 publishers
// emitting 4-message bursts, with rate windows that run 4x hot for the
// first second and cool to half rate afterwards — the §2.1 burst regime
// whose tail losses session messages exist to detect, now phase-shifted
// across clients.
func BurstyWorkload() *workload.Spec {
	return &workload.Spec{
		Clients: 4, Msgs: 48,
		Arrival: workload.ArrivalBurst, Gap: 200 * time.Millisecond,
		BurstLen: 4, BurstGap: 5 * time.Millisecond,
		Windows: []workload.Window{
			{From: 0, To: time.Second, Factor: 4},
			{From: 2 * time.Second, To: 4 * time.Second, Factor: 0.5},
		},
	}
}

// VoDPrefixPush is the workload family's video-on-demand cell (after Nair
// & Jayarekha's prefix-push regime): one sender pushes a 60-message 1 KiB
// prefix over the first ~1.2 s, and a quarter of the members join late —
// between 1.5 s and 2.5 s — needing the entire prefix recovered. This is
// the regime the paper's two-phase long-term set was designed for: a
// fixed-hold policy has evicted the early prefix everywhere by the time
// the joiners arrive.
func VoDPrefixPush() *workload.Spec {
	return &workload.Spec{
		Clients: 1, Msgs: 60,
		Arrival: workload.ArrivalConstant, Gap: 20 * time.Millisecond,
		SizeModel: workload.SizeFixed, SizeMean: 1024,
		LateJoinFrac: 0.25, LateJoinAt: 1500 * time.Millisecond,
		LateJoinSpread: time.Second,
	}
}

// WorkloadSweep returns the standing multi-client workload matrix appended
// after DefaultSweep in BENCH_sweep.json: the three workload shapes
// (multi-client Zipf, diurnal bursts, VoD prefix-push) over a two-region
// topology, both loss rates, both buffering policies, and both protocols.
// Hash-mode loss keeps every rrmp cell shard-safe — the whole family runs
// parallel. A separate sweep rather than more DefaultSweep axes so the
// committed 576-cell matrix keeps its bytes.
func WorkloadSweep() Sweep {
	return Sweep{
		Base:      Scenario{LossMode: "hash"},
		Workloads: []*workload.Spec{MultiClientWorkload(), BurstyWorkload(), VoDPrefixPush()},
		Regions:   [][]int{{30, 30}},
		Losses:    []float64{0.05, 0.20},
		Policies:  []string{"two-phase", "fixed"},
		Protocols: []string{"rrmp", "rmtp"},
	}
}

// AdaptiveSweep returns the demand-aware policy family appended after
// WorkloadSweep in BENCH_sweep.json: the diurnal-burst workload — the
// regime whose hot windows concentrate request demand on a few sources —
// over a two-region topology at both loss rates, contrasting the adaptive
// policy against the two legacy retention disciplines it interpolates
// between (ablation A8 reads the same contrast at one loss rate). RRMP
// only: the adaptive contract has no meaning for the rmtp repair server.
// A separate sweep so the committed 594-cell matrix keeps its bytes.
func AdaptiveSweep() Sweep {
	return Sweep{
		Base:      Scenario{LossMode: "hash"},
		Workloads: []*workload.Spec{BurstyWorkload()},
		Regions:   [][]int{{30, 30}},
		Losses:    []float64{0.05, 0.20},
		Policies:  []string{"two-phase", "fixed", "adaptive"},
	}
}

// Expand returns the cartesian product in a fixed order: the workload
// axis outermost (the legacy single-sender shape — nil — before any
// multi-client family), then the protocol axis (RRMP families before any
// "rmtp" baseline family), then payload sizes and byte budgets (so the
// default (0, 0) block — when present — reproduces the pre-axis matrix
// cell for cell before any byte-axis family follows), then the topology
// axis (all Regions vectors, then all Trees), then losses, churns,
// crashes, partitions, and policies innermost. The order is part of the
// report schema — cells keep their position across runs.
//
// Every cell starts from Base with these defaults applied: zero Msgs,
// Gap, Horizon and FixedHold become 20, 20 ms, 5 s and 500 ms; an empty
// Policy becomes two-phase and policy aliases canonicalize through the
// registry; "rrmp" normalizes to the canonical empty Protocol; a lossless
// cell drops LossMode, a crash-free cell CrashRecover, a partition-free
// cell PartitionDur; and RMTP cells
// replace the policy dimension with the single value "server" (see
// Sweep.Protocols).
func (sw Sweep) Expand() []Scenario {
	base := sw.Base
	if sw.Msgs > 0 {
		base.Msgs = sw.Msgs
	}
	if sw.Horizon > 0 {
		base.Horizon = sw.Horizon
	}
	if base.Msgs == 0 {
		base.Msgs = 20
	}
	if base.Gap == 0 {
		base.Gap = 20 * time.Millisecond
	}
	if base.Horizon == 0 {
		base.Horizon = 5 * time.Second
	}
	if base.FixedHold == 0 {
		base.FixedHold = 500 * time.Millisecond
	}
	if base.Policy == "" {
		base.Policy = policyspec.KindTwoPhase
	}
	partAt := base.PartitionAt
	if partAt <= 0 {
		partAt = base.Horizon / 4
	}

	regions, trees := sw.Regions, sw.Trees
	if len(regions) == 0 && len(trees) == 0 {
		switch {
		case base.Tree != nil:
			trees = []TreeShape{*base.Tree}
		case len(base.Regions) > 0:
			regions = [][]int{base.Regions}
		default:
			regions = [][]int{{100}}
		}
	}
	type topoCell struct {
		regions []int
		tree    *TreeShape
	}
	// Each topology is copied once and shared by its cells, like a tree
	// cell's TreeShape: cells are read-only, and never alias the sweep's
	// own slices.
	topos := make([]topoCell, 0, len(regions)+len(trees))
	for _, r := range regions {
		topos = append(topos, topoCell{regions: append([]int(nil), r...)})
	}
	for i := range trees {
		t := trees[i]
		topos = append(topos, topoCell{tree: &t})
	}
	losses := axis(sw.Losses, base.Loss)
	churns := axis(sw.Churns, base.Churn)
	crashes := axis(sw.Crashes, base.Crash)
	partitions := axis(sw.Partitions, base.PartitionDur)
	// Policy tokens canonicalize through the registry, so a historic alias
	// ("fixed-hold") and its canonical kind ("fixed") name the same cell.
	// Committed matrices already use canonical tokens; their bytes do not
	// change.
	policies := append([]string(nil), axis(sw.Policies, base.Policy)...)
	for i, p := range policies {
		policies[i] = policyspec.Canonical(p)
	}
	payloads := axis(sw.PayloadSizes, base.PayloadBytes)
	budgets := axis(sw.Budgets, base.ByteBudget)
	protocols := axis(sw.Protocols, base.Protocol)
	workloads := axis(sw.Workloads, base.Workload)

	out := make([]Scenario, 0, len(workloads)*len(protocols)*len(payloads)*len(budgets)*
		len(topos)*len(losses)*len(churns)*len(crashes)*len(partitions)*len(policies))
	for _, wl := range workloads {
		for _, proto := range protocols {
			if proto == "rrmp" {
				proto = "" // canonical default, so RRMP cells keep their JSON bytes
			}
			pols := policies
			if proto == "rmtp" {
				// The baseline's buffering discipline is the repair server
				// itself; RRMP policy names do not apply, so the axis
				// collapses to one cell per combination.
				pols = []string{"server"}
			}
			for _, pb := range payloads {
				for _, bud := range budgets {
					for _, tc := range topos {
						for _, l := range losses {
							for _, ch := range churns {
								for _, cr := range crashes {
									for _, pd := range partitions {
										for _, p := range pols {
											out = append(out, base)
											sc := &out[len(out)-1]
											sc.Protocol = proto
											sc.Regions = tc.regions
											sc.Star = base.Star && tc.tree == nil
											sc.Tree = tc.tree
											sc.Loss, sc.Churn, sc.Crash, sc.Policy = l, ch, cr, p
											sc.PayloadBytes, sc.ByteBudget, sc.Workload = pb, bud, wl
											if l <= 0 {
												sc.LossMode = ""
											}
											if cr <= 0 {
												sc.CrashRecover = 0
											}
											// A partition axis replaces Base's
											// episode; without one, Base's
											// (possibly open-ended) episode
											// stands.
											if len(sw.Partitions) > 0 {
												sc.PartitionAt, sc.PartitionDur = 0, 0
												if pd > 0 {
													sc.PartitionAt, sc.PartitionDur = partAt, pd
												}
											}
											if sc.PartitionAt <= 0 {
												sc.PartitionDur = 0
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// axis returns the swept values, or Base's single value when the axis is
// empty.
func axis[T any](vals []T, base T) []T {
	if len(vals) == 0 {
		return []T{base}
	}
	return vals
}

// Validate checks the sweep once before any cell runs: Base and every axis
// value against Scenario.Validate's rules, and the policy axis against the
// registry, so a typo fails at expansion time with the known-policy menu
// (policy.UnknownKindError via errors.As) instead of deep inside the
// runner on some mid-sweep trial. Sweeps whose protocols are all "rmtp"
// skip the policy check: their policy axis collapses to the "server"
// placeholder.
func (sw Sweep) Validate() error {
	if err := sw.Base.Validate(); err != nil {
		return err
	}
	// Each axis value is checked as a one-field scenario, so the sweep and
	// the kernel share one rule set.
	for _, err := range []error{
		Scenario{Msgs: sw.Msgs, Horizon: sw.Horizon}.Validate(),
		validateAxis(sw.Losses, func(v float64) Scenario { return Scenario{Loss: v} }),
		validateAxis(sw.Churns, func(v float64) Scenario { return Scenario{Churn: v} }),
		validateAxis(sw.Crashes, func(v float64) Scenario { return Scenario{Crash: v} }),
		validateAxis(sw.Partitions, func(v time.Duration) Scenario { return Scenario{PartitionDur: v} }),
		validateAxis(sw.PayloadSizes, func(v int) Scenario { return Scenario{PayloadBytes: v} }),
		validateAxis(sw.Budgets, func(v int) Scenario { return Scenario{ByteBudget: v} }),
		validateAxis(sw.Protocols, func(v string) Scenario { return Scenario{Protocol: v} }),
		validateAxis(sw.Workloads, func(v *workload.Spec) Scenario { return Scenario{Workload: v} }),
	} {
		if err != nil {
			return err
		}
	}

	rrmpFamily := false
	for _, p := range axis(sw.Protocols, sw.Base.Protocol) {
		if p == "" || p == "rrmp" {
			rrmpFamily = true
		}
	}
	if !rrmpFamily {
		return nil
	}
	for _, p := range axis(sw.Policies, sw.Base.Policy) {
		if p == "" {
			continue // the two-phase default
		}
		if _, err := policyspec.Parse(p); err != nil {
			return fmt.Errorf("exp: policy %q: %w", p, err)
		}
	}
	return nil
}

// validateAxis checks each axis value as the one set field of an
// otherwise zero scenario.
func validateAxis[T any](vals []T, probe func(T) Scenario) error {
	for _, v := range vals {
		if err := probe(v).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ScenarioFunc runs one seeded trial of one scenario and returns its
// metrics. internal/runner provides the canonical implementation.
type ScenarioFunc func(sc Scenario, seed uint64) (map[string]float64, error)

// Cell is one aggregated sweep cell.
type Cell struct {
	Name      string    `json:"name"`
	Scenario  Scenario  `json:"scenario"`
	Aggregate Aggregate `json:"aggregate"`
}

// ReportSchema identifies the sweep report's JSON layout; bump it on any
// incompatible change so downstream trackers can dispatch.
const ReportSchema = "rrmp-sweep/v1"

// Report is a whole sweep's output. It deliberately contains nothing
// scheduling- or wall-clock-dependent: the same (sweep, trials, base seed)
// marshal to byte-identical JSON at any parallelism.
type Report struct {
	Schema   string `json:"schema"`
	BaseSeed uint64 `json:"base_seed"`
	Trials   int    `json:"trials"`
	// ExecNote records execution-only caveats — cells that ignored the
	// requested -shards width and ran serial (legacy-stream loss, rmtp).
	// Empty (and omitted, so default-shards reports keep their bytes)
	// unless shards were requested and some cell fell back. Execution
	// metadata, not cell identity: aggregates are unaffected either way.
	ExecNote string `json:"exec_note,omitempty"`
	Cells    []Cell `json:"cells"`
}

// Cell returns the cell with the given name, if present.
func (r Report) Cell(name string) (Cell, bool) {
	for _, c := range r.Cells {
		if c.Name == name {
			return c, true
		}
	}
	return Cell{}, false
}

// RunSweep expands the sweep and runs every (cell, trial) pair through one
// worker pool, so a wide matrix with few trials parallelizes as well as a
// narrow one with many. Trial i uses the same seed in every cell — common
// random numbers, the paired design that lets per-cell differences be read
// as policy effects rather than draw luck.
func RunSweep(o Options, sw Sweep, run ScenarioFunc) (Report, error) {
	return RunSweeps(o, []Sweep{sw}, run)
}

// RunSweeps expands every sweep in order and runs the concatenated cell
// list through one shared worker pool — how BENCH_sweep.json gains new
// cell families without re-byting committed ones: each family is its own
// sweep, appended after the previous ones. The common-random-numbers
// pairing spans the whole concatenation (trial i uses one seed
// everywhere).
func RunSweeps(o Options, sweeps []Sweep, run ScenarioFunc) (Report, error) {
	o = o.normalized()
	var scenarios []Scenario
	for _, sw := range sweeps {
		if err := sw.Validate(); err != nil {
			return Report{}, err
		}
		scenarios = append(scenarios, sw.Expand()...)
	}
	results := make([][]map[string]float64, len(scenarios))
	for i := range results {
		results[i] = make([]map[string]float64, o.Trials)
	}
	err := runJobs(o.Parallel, len(scenarios)*o.Trials, func(j int) error {
		cell, trial := j/o.Trials, j%o.Trials
		seed := TrialSeed(o.BaseSeed, trial)
		m, err := run(scenarios[cell], seed)
		if err != nil {
			return fmt.Errorf("exp: cell %q trial %d (seed %#x): %w",
				scenarios[cell].Name(), trial, seed, err)
		}
		results[cell][trial] = m
		return nil
	})
	if err != nil {
		return Report{}, err
	}

	rep := Report{Schema: ReportSchema, BaseSeed: o.BaseSeed, Trials: o.Trials}
	for i, sc := range scenarios {
		rep.Cells = append(rep.Cells, Cell{
			Name:      sc.Name(),
			Scenario:  sc,
			Aggregate: AggregateTrials(results[i]),
		})
	}
	return rep, nil
}
