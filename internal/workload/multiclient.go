package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/rng"
)

// Arrival-process tokens accepted by Spec.Arrival (and the -workload flag).
const (
	ArrivalConstant = "constant"
	ArrivalPoisson  = "poisson"
	ArrivalBurst    = "burst"
)

// Window is one rate-modulation phase: while From <= t < To a client's
// arrival rate is multiplied by Factor (so Factor 2 halves the gaps and
// Factor 0.25 stretches them 4x). Windows model diurnal load swings and
// bursty phases without a separate generator per phase; outside every
// window the base rate applies.
type Window struct {
	From   time.Duration `json:"from_ns"`
	To     time.Duration `json:"to_ns"`
	Factor float64       `json:"factor"`
}

// Spec declares a multi-client workload: N concurrent publishers, each
// with its own arrival process, a Zipf-skewed share of the total publish
// volume, and a shared payload-size model. A Spec is pure data (it lives
// inside exp.Scenario and serializes into sweep reports); Timeline
// materializes it into the merged publish schedule both protocol kernels
// drive.
type Spec struct {
	// Clients is the number of concurrent publishers (>= 1).
	Clients int `json:"clients"`
	// Msgs is the total publish count across all clients.
	Msgs int `json:"msgs"`
	// Arrival selects the per-client arrival process: "constant",
	// "poisson", or "burst".
	Arrival string `json:"arrival"`
	// Gap is the per-client mean inter-publish gap at the base rate.
	Gap time.Duration `json:"gap_ns"`
	// ZipfS skews publish volume across clients: client k (0-based) gets
	// weight 1/(k+1)^ZipfS of the total. 0 divides evenly.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// BurstLen and BurstGap shape the "burst" arrival process: bursts of
	// BurstLen publishes spaced BurstGap apart, with the (rate-modulated)
	// Gap from each burst's last publish to the next burst's start.
	BurstLen int           `json:"burst_len,omitempty"`
	BurstGap time.Duration `json:"burst_gap_ns,omitempty"`
	// Windows modulate every client's arrival rate over time.
	Windows []Window `json:"windows,omitempty"`
	// SizeModel and SizeMean pick the per-publish payload-size model
	// (NewSizeModel tokens). Both zero means the workload does not engage
	// the byte axis and publishes carry the historic 256-byte payload.
	SizeModel string `json:"size_model,omitempty"`
	SizeMean  int    `json:"size_mean,omitempty"`
	// LateJoinFrac > 0 marks the VoD prefix-push regime: that fraction of
	// non-publisher members start crashed and join between LateJoinAt and
	// LateJoinAt+LateJoinSpread, needing the whole published prefix
	// recovered. The runner owns member selection; the spec only carries
	// the shape.
	LateJoinFrac   float64       `json:"late_join_frac,omitempty"`
	LateJoinAt     time.Duration `json:"late_join_at_ns,omitempty"`
	LateJoinSpread time.Duration `json:"late_join_spread_ns,omitempty"`
}

// Validate checks the spec's static shape, returning the first problem.
func (s *Spec) Validate() error {
	if s.Clients < 1 {
		return fmt.Errorf("workload: clients %d < 1", s.Clients)
	}
	if s.Msgs < 1 {
		return fmt.Errorf("workload: msgs %d < 1", s.Msgs)
	}
	switch s.Arrival {
	case ArrivalConstant, ArrivalPoisson:
	case ArrivalBurst:
		if s.BurstLen < 1 {
			return fmt.Errorf("workload: burst arrival needs burst-len >= 1, got %d", s.BurstLen)
		}
		if s.BurstGap < 0 {
			return fmt.Errorf("workload: negative burst gap %v", s.BurstGap)
		}
	default:
		return fmt.Errorf("workload: unknown arrival process %q", s.Arrival)
	}
	if s.Gap <= 0 {
		return fmt.Errorf("workload: non-positive mean gap %v", s.Gap)
	}
	// Every float guard is written so NaN fails it: a NaN compares false
	// against everything and would otherwise slip through as "in range".
	if !(s.ZipfS >= 0) || math.IsInf(s.ZipfS, 1) {
		return fmt.Errorf("workload: zipf skew %g is not finite and non-negative", s.ZipfS)
	}
	for i, w := range s.Windows {
		if w.To <= w.From || w.From < 0 {
			return fmt.Errorf("workload: window %d range [%v,%v) invalid", i, w.From, w.To)
		}
		if !(w.Factor > 0) || math.IsInf(w.Factor, 1) {
			return fmt.Errorf("workload: window %d factor %g is not finite and positive", i, w.Factor)
		}
	}
	if s.SizeModel != "" || s.SizeMean > 0 {
		if _, err := NewSizeModel(s.SizeModel, s.SizeMean); err != nil {
			return err
		}
	}
	if !(s.LateJoinFrac >= 0 && s.LateJoinFrac <= 1) {
		return fmt.Errorf("workload: late-join fraction %g outside [0,1]", s.LateJoinFrac)
	}
	if s.LateJoinFrac > 0 && s.LateJoinAt <= 0 {
		return fmt.Errorf("workload: late joiners need a positive join time, got %v", s.LateJoinAt)
	}
	if s.LateJoinSpread < 0 {
		return fmt.Errorf("workload: negative late-join spread %v", s.LateJoinSpread)
	}
	return nil
}

// BytesEngaged reports whether the spec draws payload sizes (and so the
// byte-currency metrics belong in its cells).
func (s *Spec) BytesEngaged() bool {
	return s != nil && (s.SizeModel != "" || s.SizeMean > 0)
}

// Token returns the spec's stable cell-name token (the "wl=..." value in
// scenario names and reports). It encodes only the axes the spec engages,
// the same keep-names-short rule Scenario.Name follows.
func (s *Spec) Token() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:c%d:m%d", s.Arrival, s.Clients, s.Msgs)
	if s.ZipfS > 0 {
		fmt.Fprintf(&b, ":z%g", s.ZipfS)
	}
	if len(s.Windows) > 0 {
		fmt.Fprintf(&b, ":w%d", len(s.Windows))
	}
	if s.BytesEngaged() {
		model := s.SizeModel
		if model == "" {
			model = SizeFixed
		}
		mean := s.SizeMean
		if mean < 1 {
			mean = 256
		}
		fmt.Fprintf(&b, ":%s%d", model, mean)
	}
	if s.LateJoinFrac > 0 {
		fmt.Fprintf(&b, ":vod%g@%v", s.LateJoinFrac, s.LateJoinAt)
	}
	return b.String()
}

// Event is one publish of a merged multi-client timeline.
type Event struct {
	// At is the publish instant relative to the run start.
	At time.Duration
	// Client is the publishing client's index (maps to a member node in
	// the runner).
	Client int
	// Bytes is the payload size (>= 1).
	Bytes int
}

// Timeline is a merged multi-client publish schedule, sorted by (At,
// Client). It is the unit the kernels drive, the trace codec records, and
// Replay reconstructs.
type Timeline []Event

// Valid reports whether the timeline is non-decreasing in time with sane
// per-event fields — the drivers reject anything else instead of silently
// scheduling out of order.
func (tl Timeline) Valid() bool {
	for i, e := range tl {
		if e.At < 0 || e.Client < 0 || e.Bytes < 1 {
			return false
		}
		if i > 0 && e.At < tl[i-1].At {
			return false
		}
	}
	return true
}

// Span returns the time of the last publish (0 for an empty timeline).
func (tl Timeline) Span() time.Duration {
	if len(tl) == 0 {
		return 0
	}
	return tl[len(tl)-1].At
}

// Clients returns the number of client slots the timeline addresses
// (max index + 1).
func (tl Timeline) Clients() int {
	max := -1
	for _, e := range tl {
		if e.Client > max {
			max = e.Client
		}
	}
	return max + 1
}

// MaxBytes returns the largest payload in the timeline.
func (tl Timeline) MaxBytes() int {
	max := 0
	for _, e := range tl {
		if e.Bytes > max {
			max = e.Bytes
		}
	}
	return max
}

// clientStreamBase labels the per-client rng streams. Client k's stream is
// root.Split(clientStreamBase + k): a counter-hash derivation, so the
// stream depends only on the workload seed and the client index — never on
// member count, shard width, or how many draws other clients made.
const clientStreamBase = 0xc11e4700

// Per-client substream labels (split off the client stream).
const (
	arrivalSubStream = 1
	sizeSubStream    = 2
)

// zipfShares apportions total messages across clients with Zipf(s) weights
// (client k gets weight 1/(k+1)^s; s = 0 is an even split), using
// largest-remainder rounding so the counts sum exactly to total. Ties in
// the remainders break toward lower-ranked (higher-weight) clients, so the
// result is deterministic.
func zipfShares(total, clients int, s float64) []int {
	weights := make([]float64, clients)
	var sum float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -s)
		sum += weights[k]
	}
	counts := make([]int, clients)
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, clients)
	assigned := 0
	for k := range counts {
		exact := float64(total) * weights[k] / sum
		counts[k] = int(exact)
		assigned += counts[k]
		rems[k] = rem{idx: k, frac: exact - float64(counts[k])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < total-assigned; i++ {
		counts[rems[i%clients].idx]++
	}
	return counts
}

// factorAt returns the rate-modulation factor in effect at t: the first
// matching window's Factor, or 1.
func (s *Spec) factorAt(t time.Duration) float64 {
	for _, w := range s.Windows {
		if t >= w.From && t < w.To {
			return w.Factor
		}
	}
	return 1
}

// gapAt returns the effective mean gap at t (base gap divided by the
// window factor), floored at 1ns so schedules always advance.
func (s *Spec) gapAt(t time.Duration) time.Duration {
	g := time.Duration(float64(s.Gap) / s.factorAt(t))
	if g < 1 {
		g = 1
	}
	return g
}

// clientSchedule generates one client's publish instants. r drives only
// this client's arrival randomness (poisson draws); constant and burst
// processes are deterministic given the spec.
func (s *Spec) clientSchedule(msgs int, r *rng.Source) Schedule {
	if msgs <= 0 {
		return nil
	}
	out := make(Schedule, 0, msgs)
	at := time.Duration(0)
	switch s.Arrival {
	case ArrivalConstant:
		for len(out) < msgs {
			out = append(out, at)
			at += s.gapAt(at)
		}
	case ArrivalPoisson:
		for len(out) < msgs {
			out = append(out, at)
			gap := s.gapAt(at)
			at += time.Duration(r.ExpFloat64(1/gap.Seconds()) * float64(time.Second))
		}
	case ArrivalBurst:
		for len(out) < msgs {
			last := at
			for i := 0; i < s.BurstLen && len(out) < msgs; i++ {
				last = at + time.Duration(i)*s.BurstGap
				out = append(out, last)
			}
			at = last + s.gapAt(last)
		}
	}
	return out
}

// Timeline materializes the spec into the merged (at, client, bytes)
// publish timeline, the multi-client analogue of PayloadSizesFor's
// pre-drawn sizes: all randomness is consumed here, up front, from
// dedicated per-client streams, so the driving engine schedules pure data
// and stays byte-identical at any shard width or worker-pool size.
func (s *Spec) Timeline(seed uint64) (Timeline, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	model, err := NewSizeModel(s.SizeModel, s.SizeMean)
	if err != nil {
		return nil, err
	}
	counts := zipfShares(s.Msgs, s.Clients, s.ZipfS)
	root := rng.New(seed)
	events := make(Timeline, 0, s.Msgs)
	for c := 0; c < s.Clients; c++ {
		cr := root.Split(clientStreamBase + uint64(c))
		sched := s.clientSchedule(counts[c], cr.Split(arrivalSubStream))
		if !sched.Valid() {
			return nil, fmt.Errorf("workload: client %d schedule not monotone", c)
		}
		var sr *rng.Source
		if !Deterministic(model) {
			sr = cr.Split(sizeSubStream)
		}
		sizes := Sizes(model, len(sched), sr)
		for i, at := range sched {
			events = append(events, Event{At: at, Client: c, Bytes: sizes[i]})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Client < events[j].Client
	})
	if !events.Valid() {
		return nil, fmt.Errorf("workload: merged timeline invalid")
	}
	return events, nil
}
