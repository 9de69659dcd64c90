package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one fixed solver or communication phase of a CP-ALS
// run. The set is closed on purpose: a fixed enum keeps the hot-path span
// record a pair of integer stores (no string handling, no map lookups)
// and lets per-phase aggregates live in a flat array.
type Phase uint8

const (
	// PhaseIteration spans one full exact-ALS iteration (Mode carries the
	// 1-based iteration number).
	PhaseIteration Phase = iota
	// PhaseRefine spans one exact refinement iteration of a CP-ARLS-LEV
	// run (the tail iterations after sampling hands off).
	PhaseRefine
	// PhaseMTTKRP spans one per-mode exact MTTKRP kernel invocation.
	PhaseMTTKRP
	// PhaseGram spans Gram bookkeeping: the Hadamard product of co-factor
	// Grams plus the post-solve Syrk refresh.
	PhaseGram
	// PhaseSolve spans the normal-equations solve (Cholesky with SPD
	// fallback).
	PhaseSolve
	// PhaseNormalize spans column normalization and weight extraction.
	PhaseNormalize
	// PhaseFit spans the fit computation (exact residual or sampled
	// estimate).
	PhaseFit
	// PhaseSample spans leverage-score sample drawing, including the
	// per-mode fiber index build it needs.
	PhaseSample
	// PhaseSampledMTTKRP spans the accumulation of the sampled
	// least-squares system (the sketched MTTKRP).
	PhaseSampledMTTKRP
	// PhaseLeverage spans leverage-score refresh after a factor update.
	PhaseLeverage
	// PhaseWarmStart spans warm-start seeding: resolving the seed model
	// and expanding its factors to the appended revision's mode lengths
	// before the absorb run starts. Recorded by the serving layer, not the
	// engine, so it appears in job profiles only for warm-started jobs.
	PhaseWarmStart
	// PhaseBuild spans the storage-format build (sort and CSF assembly,
	// or ALTO linearize and sort) before the first iteration: once per
	// run, and once per locale in a distributed run.
	// New non-comm phases must be inserted before PhaseCommBarrier (IsComm
	// treats the comm phases as a trailing block).
	PhaseBuild
	// PhaseCommBarrier spans standalone barrier collectives.
	PhaseCommBarrier
	// PhaseCommAllreduce spans allreduce collectives (sum/max/scalar).
	PhaseCommAllreduce
	// PhaseCommAllgather spans row-partitioned allgather collectives.
	PhaseCommAllgather

	// NumPhases bounds the enum; per-phase aggregate arrays are indexed
	// [0, NumPhases).
	NumPhases
)

var phaseNames = [NumPhases]string{
	"iteration",
	"refine",
	"mttkrp",
	"gram",
	"solve",
	"normalize",
	"fit",
	"sample",
	"sampled_mttkrp",
	"leverage",
	"warm_start",
	"build",
	"comm_barrier",
	"comm_allreduce",
	"comm_allgather",
}

// String returns the stable exposition name of the phase (used as the
// `phase` label value and the Chrome trace event name).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// IsComm reports whether the phase is a communication collective.
func (p Phase) IsComm() bool { return p >= PhaseCommBarrier && p < NumPhases }

// CommOp returns the collective operation name ("barrier", "allreduce",
// "allgather") for comm phases and "" otherwise.
func (p Phase) CommOp() string {
	switch p {
	case PhaseCommBarrier:
		return "barrier"
	case PhaseCommAllreduce:
		return "allreduce"
	case PhaseCommAllgather:
		return "allgather"
	}
	return ""
}

// Span is one completed, timed phase execution. It is plain scalars
// passed by value, so recording one is two integer stores into a
// preallocated ring — nothing escapes to the heap.
type Span struct {
	// Phase is the fixed phase ID.
	Phase Phase
	// Mode is the tensor mode for per-mode phases, the 1-based iteration
	// number for PhaseIteration/PhaseRefine, and -1 when not applicable.
	Mode int32
	// Start is nanoseconds since the owning Profiler's epoch.
	Start int64
	// Dur is the span duration in nanoseconds.
	Dur int64
	// Bytes is the communication payload for comm spans (0 otherwise).
	Bytes int64
}

// End returns the span's end time in nanoseconds since the epoch.
func (s Span) End() int64 { return s.Start + s.Dur }

// phaseAgg is the always-exact per-phase aggregate: even when the span
// ring fills and stops retaining events, every call still lands here.
// Atomics make aggregates readable (Profile, /profile) while a run is
// mid-flight.
type phaseAgg struct {
	nanos atomic.Int64
	calls atomic.Int64
	bytes atomic.Int64
}

// SpanRecorder is the per-locale (per-task) recording surface. Each
// locale of a run owns exactly one recorder and is the only writer, so
// the hot path is one atomic add per aggregate plus an uncontended mutex
// around the span append. Recording is allocation-free: the ring is
// preallocated and spans are stored by value.
//
// The ring keeps the FIRST capacity spans and drops (but counts) later
// ones. Keeping the head rather than the tail preserves a well-nested,
// monotonic prefix of the timeline — exactly what the Chrome trace
// export needs — while the aggregates stay exact regardless.
type SpanRecorder struct {
	epoch  time.Time
	locale int32
	agg    [NumPhases]phaseAgg

	mu      sync.Mutex
	spans   []Span
	dropped int64
}

// Locale returns the locale (task) index this recorder belongs to.
func (r *SpanRecorder) Locale() int { return int(r.locale) }

// Start returns the current time in nanoseconds since the profiler
// epoch. Pair it with End/EndMode/EndOp; the int64 handle keeps open
// spans off the heap.
func (r *SpanRecorder) Start() int64 {
	return int64(time.Since(r.epoch))
}

// End closes a span with no mode or byte attribution and returns its
// duration in nanoseconds.
func (r *SpanRecorder) End(p Phase, start int64) int64 {
	return r.record(p, start, -1, 0)
}

// EndMode closes a span attributed to a tensor mode (or, for iteration
// phases, an iteration number) and returns its duration in nanoseconds.
func (r *SpanRecorder) EndMode(p Phase, start int64, mode int) int64 {
	return r.record(p, start, int32(mode), 0)
}

// EndOp closes a communication span carrying a payload byte count and
// returns its duration in nanoseconds. Callers that keep their own
// accounting (e.g. the dist comm fabric) reuse the returned duration so
// both ledgers see the identical clock reading.
func (r *SpanRecorder) EndOp(p Phase, start int64, bytes int64) int64 {
	return r.record(p, start, -1, bytes)
}

func (r *SpanRecorder) record(p Phase, start int64, mode int32, bytes int64) int64 {
	dur := int64(time.Since(r.epoch)) - start
	if p >= NumPhases {
		return dur
	}
	a := &r.agg[p]
	a.nanos.Add(dur)
	a.calls.Add(1)
	if bytes != 0 {
		a.bytes.Add(bytes)
	}
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, Span{Phase: p, Mode: mode, Start: start, Dur: dur, Bytes: bytes})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return dur
}

// snapshotSpans copies the retained spans and the drop count.
func (r *SpanRecorder) snapshotSpans() ([]Span, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out, r.dropped
}

// Profiler owns the span recorders of one run: one per locale (a
// single-locale run uses recorder 0). Construct it before the run,
// hand Recorder(i) to each locale, and read Profile / WriteChromeTrace
// at any time — snapshots are safe while the run is mid-flight.
type Profiler struct {
	epoch time.Time
	recs  []SpanRecorder
}

// NewProfiler creates a profiler with `locales` recorders, each
// retaining up to `capacity` spans (0 keeps aggregates only).
func NewProfiler(locales, capacity int) *Profiler {
	if locales < 1 {
		locales = 1
	}
	if capacity < 0 {
		capacity = 0
	}
	p := &Profiler{epoch: time.Now(), recs: make([]SpanRecorder, locales)}
	for i := range p.recs {
		p.recs[i].epoch = p.epoch
		p.recs[i].locale = int32(i)
		p.recs[i].spans = make([]Span, 0, capacity)
	}
	return p
}

// Locales returns the number of recorders.
func (p *Profiler) Locales() int { return len(p.recs) }

// Recorder returns locale l's recorder. Out-of-range indexes clamp to
// the last recorder rather than panic, so a mis-sized profiler degrades
// to shared attribution instead of tearing down a run.
func (p *Profiler) Recorder(l int) *SpanRecorder {
	if l < 0 {
		l = 0
	}
	if l >= len(p.recs) {
		l = len(p.recs) - 1
	}
	return &p.recs[l]
}

// PhaseStat is the aggregate cost of one phase: call count, wall
// seconds, and (for comm phases) payload bytes.
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Calls   int64   `json:"calls"`
	Seconds float64 `json:"seconds"`
	Bytes   int64   `json:"bytes,omitempty"`
}

// LocaleProfile is one locale's per-phase breakdown.
type LocaleProfile struct {
	Locale int         `json:"locale"`
	Phases []PhaseStat `json:"phases"`
}

// Profile is a point-in-time aggregate snapshot: merged per-phase totals
// plus the per-locale breakdown (omitted for single-locale runs, where
// it would duplicate the merged view).
type Profile struct {
	Phases  []PhaseStat     `json:"phases"`
	Locales []LocaleProfile `json:"locales,omitempty"`
	// Spans counts timeline events retained across all locales;
	// SpansDropped counts events that exceeded the ring capacity (their
	// cost still appears in the aggregates above).
	Spans        int64 `json:"spans"`
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// Profile merges the recorders into an aggregate snapshot. Seconds are
// derived from int64 nanosecond sums as float64(nanos)/1e9, so a
// locale's per-phase seconds are exact functions of the same integer
// ledger the dist comm fabric keeps — per-op comm seconds here equal
// dist.Report per-op seconds bitwise.
func (p *Profiler) Profile() Profile {
	var prof Profile
	var nanos, calls, bytes [NumPhases]int64
	for l := range p.recs {
		r := &p.recs[l]
		var lp LocaleProfile
		lp.Locale = l
		for ph := Phase(0); ph < NumPhases; ph++ {
			n := r.agg[ph].nanos.Load()
			c := r.agg[ph].calls.Load()
			b := r.agg[ph].bytes.Load()
			if c == 0 {
				continue
			}
			nanos[ph] += n
			calls[ph] += c
			bytes[ph] += b
			lp.Phases = append(lp.Phases, PhaseStat{
				Phase:   ph.String(),
				Calls:   c,
				Seconds: float64(n) / 1e9,
				Bytes:   b,
			})
		}
		prof.Locales = append(prof.Locales, lp)

		r.mu.Lock()
		prof.Spans += int64(len(r.spans))
		prof.SpansDropped += r.dropped
		r.mu.Unlock()
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if calls[ph] == 0 {
			continue
		}
		prof.Phases = append(prof.Phases, PhaseStat{
			Phase:   ph.String(),
			Calls:   calls[ph],
			Seconds: float64(nanos[ph]) / 1e9,
			Bytes:   bytes[ph],
		})
	}
	if len(p.recs) == 1 {
		prof.Locales = nil
	}
	return prof
}

// Spans returns a copy of every retained span tagged with its locale,
// ordered by locale then record order. Used by the Chrome trace export
// and by tests; the solver hot path never calls it.
func (p *Profiler) Spans() []LocaleSpans {
	out := make([]LocaleSpans, len(p.recs))
	for l := range p.recs {
		spans, dropped := p.recs[l].snapshotSpans()
		out[l] = LocaleSpans{Locale: l, Spans: spans, Dropped: dropped}
	}
	return out
}

// LocaleSpans is one locale's retained timeline.
type LocaleSpans struct {
	Locale  int
	Spans   []Span
	Dropped int64
}
