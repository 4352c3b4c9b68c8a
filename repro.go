package repro

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netsim"
	policyspec "repro/internal/policy"
	"repro/internal/rrmp"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Re-exported identifiers so facade users speak one vocabulary.
type (
	// NodeID identifies a group member.
	NodeID = topology.NodeID
	// MessageID identifies a data message ([source, sequence], §1).
	MessageID = wire.MessageID
	// Params are the protocol tunables (see internal/rrmp for field docs).
	Params = rrmp.Params
	// Metrics are per-member protocol counters.
	Metrics = rrmp.Metrics
	// Member is one protocol participant.
	Member = rrmp.Member
)

// DefaultParams returns the paper's §4 parameter defaults.
func DefaultParams() Params { return rrmp.DefaultParams() }

// PolicyKind selects a buffering policy for a Group.
type PolicyKind int

// Buffering policies.
const (
	// PolicyTwoPhase is the paper's algorithm (§3): feedback-based
	// short-term buffering plus randomized long-term election.
	PolicyTwoPhase PolicyKind = iota + 1
	// PolicyFixedHold buffers every message for a fixed time (Bimodal
	// Multicast's scheme).
	PolicyFixedHold
	// PolicyBufferAll never discards (the conservative strategy of §1).
	PolicyBufferAll
	// PolicyHashElect picks deterministic bufferers by hashing
	// (the authors' earlier scheme, §3.4).
	PolicyHashElect
)

// config collects the functional options. The topology, DATA loss and
// engine width options fill a scenario, so a Group builds them with the
// same runner helpers RunScenario uses.
type config struct {
	sc         exp.Scenario
	seed       uint64
	params     Params
	blackouts  []int
	policy     PolicyKind
	policySpec string
	fixedHold  time.Duration
	tracer     trace.Tracer
}

// Option configures NewGroup.
type Option func(*config)

// WithRegions arranges members into a chain hierarchy: the first region
// (the sender's) is the parent of the second, and so on. One size builds
// the paper's single-region evaluation setup.
func WithRegions(sizes ...int) Option {
	return func(c *config) { c.sc.Regions, c.sc.Star = sizes, false }
}

// WithStar arranges the regions as a two-level star: every region after
// the first attaches directly to the sender's region (the paper's
// Figure 1 shape).
func WithStar(sizes ...int) Option {
	return func(c *config) { c.sc.Regions, c.sc.Star = sizes, true }
}

// WithTree arranges members into a balanced multi-level hierarchy: levels
// levels of regions, each inner region with branch children, and members
// total group members spread evenly (the scale experiments' deep-tree
// layout). An invalid shape surfaces as a NewGroup error.
func WithTree(branch, levels, members int) Option {
	return func(c *config) { c.sc.Tree = &exp.TreeShape{Branch: branch, Levels: levels, Members: members} }
}

// WithSeed fixes the run's root random seed (default 1).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithParams overrides protocol parameters; zero fields keep defaults.
func WithParams(p Params) Option {
	return func(c *config) { c.params = p }
}

// WithDataLoss drops each initial-multicast DATA packet independently with
// probability p, leaving recovery traffic lossless as in §4.
func WithDataLoss(p float64) Option {
	return func(c *config) { c.sc.Loss, c.sc.Burst = p, false }
}

// WithBurstDataLoss uses a Gilbert–Elliott burst-loss channel for DATA at
// roughly the given long-run loss rate.
func WithBurstDataLoss(p float64) Option {
	return func(c *config) { c.sc.Loss, c.sc.Burst = p, true }
}

// WithHashDataLoss drops DATA with probability p like WithDataLoss, but
// draws from per-sender counter-hash streams (netsim.HashLoss) instead of
// one shared rng consumed in global send order. Each sender's draws depend
// only on its own send count, so the model is shard-safe: groups built
// WithShards keep running genuinely parallel. The drop pattern differs
// from WithDataLoss at equal p — a different, equally deterministic,
// stream — so switching models changes results, switching shard counts
// never does.
func WithHashDataLoss(p float64) Option {
	return func(c *config) { c.sc.Loss, c.sc.LossMode, c.sc.Burst = p, "hash", false }
}

// WithHashBurstLoss is the shard-safe form of WithBurstDataLoss: a
// Gilbert–Elliott burst channel at roughly the given long-run loss rate
// (the same PGood=p/4 parameterization), whose per-(sender,receiver) chain
// advances on per-pair counter-hash draws (netsim.HashBurstLoss) instead
// of one shared rng. Like WithHashDataLoss it is a different deterministic
// stream than the legacy model at equal p, and groups built WithShards
// keep running genuinely parallel.
func WithHashBurstLoss(p float64) Option {
	return func(c *config) { c.sc.Loss, c.sc.LossMode, c.sc.Burst = p, "hash", true }
}

// WithRegionBlackout drops the initial multicast entirely for every member
// of the given region (by index), producing the paper's "regional loss"
// scenario that only remote recovery can repair (§2.2). May be repeated.
func WithRegionBlackout(region int) Option {
	return func(c *config) { c.blackouts = append(c.blackouts, region) }
}

// WithPolicy selects the buffering policy (default PolicyTwoPhase).
// PolicyFixedHold uses hold as the retention time; PolicyHashElect uses
// int(hold) ignored and c bufferers = Params.C.
func WithPolicy(kind PolicyKind) Option {
	return func(c *config) { c.policy = kind }
}

// WithPolicySpec selects the buffering policy by registry spec string,
// e.g. "two-phase", "fixed:hold=200ms" or
// "adaptive:tmin=20ms,tmax=200ms,target=2" — the same grammar rrmp-sim's
// -policy flag and sweep policy axes accept (see rrmp-sim -list-policies
// for the roster). A non-empty spec takes precedence over WithPolicy; an
// unknown or malformed spec surfaces as a NewGroup error.
func WithPolicySpec(spec string) Option {
	return func(c *config) { c.policySpec = spec }
}

// WithFixedHold sets the retention for PolicyFixedHold (default 500 ms).
func WithFixedHold(d time.Duration) Option {
	return func(c *config) { c.fixedHold = d }
}

// WithTracer streams protocol events to the tracer (e.g. &trace.Writer{W:
// os.Stderr} — mostly for the examples and debugging).
func WithTracer(t trace.Tracer) Option {
	return func(c *config) { c.tracer = t }
}

// WithByteBudget caps every member's buffer at n payload bytes
// (Params.ByteBudget): stores past the cap displace older entries —
// short-term longest-idle first, then oldest long-term copies — and a
// displaced message recovers like any other miss, or is counted
// unrecoverable, never silently lost. Zero keeps buffers unlimited.
func WithByteBudget(n int) Option {
	return func(c *config) { c.params.ByteBudget = n }
}

// WithCopyOnStore makes every member's buffer snapshot payload bytes at
// store time instead of aliasing the received slice, for applications
// that reuse or mutate publish buffers (Params.CopyOnStore).
func WithCopyOnStore() Option {
	return func(c *config) { c.params.CopyOnStore = true }
}

// WithShards runs the group on the region-sharded parallel engine with up
// to n event loops (<= 1 runs at width 1). Results are
// byte-identical either way. Groups with a shared-stream loss model
// (WithDataLoss, WithBurstDataLoss) run at width 1 — those
// draws happen in global send order, which only one loop reproduces. The
// hash-stream models (WithHashDataLoss, WithHashBurstLoss) stay parallel.
func WithShards(n int) Option {
	return func(c *config) { c.sc.Shards = n }
}

// WithFailureDetector attaches the region-scoped gossip failure detector
// to every member, so recovery and search traffic routes around crashed
// peers (see Params.FDEnabled). Crash and partition scenarios want this;
// graceful-leave-only runs do not need it.
func WithFailureDetector() Option {
	return func(c *config) { c.params.FDEnabled = true }
}

// blackoutLoss drops all DATA to the victim set and defers to the inner
// model (if any) elsewhere.
type blackoutLoss struct {
	victims map[topology.NodeID]bool
	inner   netsim.LossModel
}

// Drop implements netsim.LossModel.
func (b *blackoutLoss) Drop(from, to topology.NodeID, t wire.Type) bool {
	if t == wire.TypeData && b.victims[to] {
		return true
	}
	if b.inner != nil {
		return b.inner.Drop(from, to, t)
	}
	return false
}

// Group is a simulated RRMP deployment: one sender plus receivers arranged
// in regions, driven over virtual time. Not safe for concurrent use.
type Group struct {
	cluster *runner.Cluster
	sender  *rrmp.Sender
}

// NewGroup builds a deployment from options. With no options it builds a
// single 100-member region with the paper's defaults.
func NewGroup(opts ...Option) (*Group, error) {
	cfg := config{
		sc:        exp.Scenario{Regions: []int{100}},
		seed:      1,
		params:    rrmp.DefaultParams(),
		policy:    PolicyTwoPhase,
		fixedHold: 500 * time.Millisecond,
	}
	for _, o := range opts {
		o(&cfg)
	}
	topo, err := runner.ScenarioTopology(cfg.sc)
	if err != nil {
		return nil, fmt.Errorf("repro: building topology: %w", err)
	}
	loss, err := runner.ScenarioLoss(cfg.sc, cfg.seed, topo.NumNodes())
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	if len(cfg.blackouts) > 0 {
		victims := make(map[topology.NodeID]bool)
		for _, r := range cfg.blackouts {
			if r < 0 || r >= topo.NumRegions() {
				return nil, fmt.Errorf("repro: blackout region %d out of range (have %d regions)", r, topo.NumRegions())
			}
			for _, n := range topo.Members(topology.RegionID(r)) {
				victims[n] = true
			}
		}
		loss = &blackoutLoss{victims: victims, inner: loss}
	}

	specStr := cfg.policySpec
	if specStr == "" {
		switch cfg.policy {
		case PolicyTwoPhase:
			specStr = policyspec.KindTwoPhase
		case PolicyFixedHold:
			specStr = policyspec.KindFixed
		case PolicyBufferAll:
			specStr = policyspec.KindAll
		case PolicyHashElect:
			specStr = policyspec.KindHash
		default:
			return nil, fmt.Errorf("repro: unknown policy kind %d", cfg.policy)
		}
	}
	spec, err := policyspec.Parse(specStr)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	policy := runner.PolicyFactory(spec, cfg.fixedHold)

	cluster, err := runner.NewCluster(runner.ClusterConfig{
		Topo:   topo,
		Params: cfg.params,
		Seed:   cfg.seed,
		Loss:   loss,
		Policy: policy,
		Tracer: cfg.tracer,
		Shards: runner.EffectiveShards(cfg.sc),
	})
	if err != nil {
		return nil, fmt.Errorf("repro: building cluster: %w", err)
	}
	return &Group{cluster: cluster, sender: cluster.Sender}, nil
}

// NumMembers returns the total member count.
func (g *Group) NumMembers() int { return g.cluster.Topo.NumNodes() }

// NumRegions returns the region count.
func (g *Group) NumRegions() int { return g.cluster.Topo.NumRegions() }

// Member returns the member with the given dense id (0 <= id < NumMembers).
func (g *Group) Member(id NodeID) *Member { return g.cluster.Members[id] }

// Members returns all members in id order (shared slice; do not modify).
func (g *Group) Members() []*Member { return g.cluster.Members }

// SenderID returns the sender's node id.
func (g *Group) SenderID() NodeID { return g.cluster.Topo.Sender() }

// Publish multicasts one message from the group's sender and returns its
// id.
func (g *Group) Publish(payload []byte) MessageID { return g.sender.Publish(payload) }

// StartSessions begins the sender's periodic session messages (§2.1).
func (g *Group) StartSessions() { g.sender.StartSessions() }

// StopSessions stops them (so the simulation can drain).
func (g *Group) StopSessions() { g.sender.StopSessions() }

// Now returns the current virtual time.
func (g *Group) Now() time.Duration { return g.cluster.Engine.Now() }

// Run advances virtual time by d, executing all protocol events due.
func (g *Group) Run(d time.Duration) { g.cluster.Engine.RunUntil(g.cluster.Engine.Now() + d) }

// RunUntil advances virtual time to the absolute instant t.
func (g *Group) RunUntil(t time.Duration) { g.cluster.Engine.RunUntil(t) }

// At schedules fn at absolute virtual time t (workload scripting). On a
// sharded group the event runs on the coordinator's global lane at
// exactly t, between shard windows, like the fault schedule.
func (g *Group) At(t time.Duration, fn func()) { g.cluster.Engine.At(t, fn) }

// CountReceived returns how many members have received id.
func (g *Group) CountReceived(id MessageID) int { return g.cluster.CountReceived(id) }

// CountBuffered returns how many members currently buffer id.
func (g *Group) CountBuffered(id MessageID) int { return g.cluster.CountBuffered(id) }

// TotalPacketsSent returns all packets offered to the network so far.
func (g *Group) TotalPacketsSent() int64 { return g.cluster.Net.Stats().TotalSent() }

// TotalBytesSent returns all bytes offered to the network so far.
func (g *Group) TotalBytesSent() int64 { return g.cluster.Net.Stats().TotalBytes() }

// Crash fails a member ungracefully: its timers stop, no handoff happens,
// and its traffic is dropped from now on. Protocol state survives for a
// later Recover.
func (g *Group) Crash(id NodeID) {
	g.cluster.Members[id].Crash()
	g.cluster.Net.SetDown(id, true)
}

// Recover brings a crashed member back: its network reconnects and it
// re-runs recovery for every gap it knew about before (and learns about
// newer losses from the next session message).
func (g *Group) Recover(id NodeID) {
	g.cluster.Net.SetDown(id, false)
	g.cluster.Members[id].Recover()
}

// Partition splits the group into two halves — along region boundaries
// when there are multiple regions, otherwise down the middle of the
// member list — and drops every packet crossing the cut until Heal.
func (g *Group) Partition() {
	g.cluster.Net.SetPartition(runner.PartitionClasses(g.cluster.Topo))
}

// Heal reconnects a partitioned group.
func (g *Group) Heal() { g.cluster.Net.ClearPartition() }

// Leave makes a member depart gracefully, handing its long-term buffer to
// random region peers (§3.2).
func (g *Group) Leave(id NodeID) { g.cluster.Members[id].Leave() }

// GroupStats aggregates per-member metrics across the whole group.
type GroupStats struct {
	Delivered          int64
	Duplicates         int64
	LocalRequests      int64
	RemoteRequests     int64
	Repairs            int64
	RegionalMulticasts int64
	Handoffs           int64
	// Searches counts §3.3 search-for-bufferer episodes started;
	// SearchFailures counts those abandoned after MaxSearchTries.
	Searches       int64
	SearchFailures int64
	// Suspects counts failure-detector suspicion events (failure detector
	// runs only with WithFailureDetector / Params.FDEnabled).
	Suspects int64
	// Unrecoverable counts losses whose recovery exhausted every retry
	// budget at members still in the group — the explicit signal that a
	// message is gone, never a silent omission.
	Unrecoverable   int64
	LongTermEntries int
	BufferedEntries int
	// BufferIntegral is total message-seconds of buffering paid so far.
	BufferIntegral float64
	// ByteIntegral is total payload-byte-seconds of buffering paid so
	// far — the byte currency the two-phase policy actually saves.
	ByteIntegral float64
	// BufferedBytes and PeakBufferedBytes are the payload bytes held now
	// (summed over members) and the highest any single member ever held.
	BufferedBytes     int
	PeakBufferedBytes int
	// PressureEvictions counts entries displaced to fit newer messages
	// under Params.ByteBudget; BudgetDenials counts stores refused
	// because one payload exceeded the whole budget. Both stay zero
	// without a budget.
	PressureEvictions int
	BudgetDenials     int
	// MeanRecoveryMs averages recovery latency over all repaired losses.
	MeanRecoveryMs float64
	// MeanReRecoveryMs averages the latency of recoveries re-initiated
	// after a crash outage (Member.Recover).
	MeanReRecoveryMs float64
	// MeanBufferingMs averages store→evict times.
	MeanBufferingMs float64
}

// Stats aggregates metrics across all members at the current instant.
func (g *Group) Stats() GroupStats {
	var s GroupStats
	var recSum, recN, bufSum, bufN, rerecSum, rerecN float64
	for _, m := range g.cluster.Members {
		mm := m.Metrics()
		s.Delivered += mm.Delivered.Value()
		s.Duplicates += mm.Duplicates.Value()
		s.LocalRequests += mm.LocalReqSent.Value()
		s.RemoteRequests += mm.RemoteReqSent.Value()
		s.Repairs += mm.RepairsSent.Value()
		s.RegionalMulticasts += mm.RegionalMulticasts.Value()
		s.Handoffs += mm.HandoffsSent.Value()
		s.Searches += mm.SearchesStarted.Value()
		s.SearchFailures += mm.SearchFailures.Value()
		s.Suspects += mm.Suspects.Value()
		if !m.Crashed() && !m.Left() {
			s.Unrecoverable += mm.Unrecoverable.Value()
		}
		s.LongTermEntries += m.Buffer().LongTermCount()
		s.BufferedEntries += m.Buffer().Len()
		s.BufferIntegral += m.Buffer().OccupancyIntegral(g.Now())
		s.ByteIntegral += m.Buffer().ByteOccupancyIntegral(g.Now())
		s.BufferedBytes += m.Buffer().Bytes()
		if p := m.Buffer().PeakBytes(); p > s.PeakBufferedBytes {
			s.PeakBufferedBytes = p
		}
		s.PressureEvictions += m.Buffer().EvictedCount(core.EvictPressure)
		s.BudgetDenials += m.Buffer().DeniedCount()
		recSum += mm.RecoveryLatency.Mean() * float64(mm.RecoveryLatency.N())
		recN += float64(mm.RecoveryLatency.N())
		bufSum += mm.BufferingTime.Mean() * float64(mm.BufferingTime.N())
		bufN += float64(mm.BufferingTime.N())
		rerecSum += mm.ReRecoveryLatency.Mean() * float64(mm.ReRecoveryLatency.N())
		rerecN += float64(mm.ReRecoveryLatency.N())
	}
	if recN > 0 {
		s.MeanRecoveryMs = recSum / recN
	}
	if bufN > 0 {
		s.MeanBufferingMs = bufSum / bufN
	}
	if rerecN > 0 {
		s.MeanReRecoveryMs = rerecSum / rerecN
	}
	return s
}
