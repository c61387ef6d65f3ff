package search

// Proposal locality (see docs/ARCHITECTURE.md, "Proposal locality").
//
// Profiling the 100k-task synthetic roofline settled why it sits ~100x
// behind nmt in proposals/sec: under uniform op sampling most proposals
// hit an op whose tasks start near t=0, the delta truncation point T0
// lands at the head of the timeline, and the re-evaluated suffix is
// genuinely most of the graph. The lever is therefore the proposal
// distribution, not the engine: LocalityMeasured steers the walk toward
// ops whose proposals were measured to re-evaluate small suffixes.
//
// Determinism: the picker draws from the chain's private RNG stream
// and from state derived only from that chain's own walk, so for a
// fixed (Seed, Locality, profile) the result is bit-identical across
// Workers values and pool sizes. The weighted sampler orders ops by
// ascending op ID internally, so the draw sequence is independent of
// how the caller enumerated the ops. LocalityUniform consumes RNG
// exactly like the pre-locality walk (one Intn per proposal) and is
// pinned to it by TestMCMCLocalityContract and TestMCMCGoldenWalk.
//
// Ergodicity: every weight is strictly positive, and a draw redraws
// uniformly with probability 1/8 (localityEscapeProb), so no op —
// however expensive its proposals — is ever starved.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"flexflow/internal/graph"
	"flexflow/internal/sim"
)

// Locality selects the proposal-locality policy of an MCMC search: how
// a chain picks which op to mutate next (see Options.Locality).
type Locality string

const (
	// LocalityUniform is the paper's walk: every op is equally likely.
	// It is the default, and it is bit-identical to a search that
	// predates the Locality option (pinned by TestMCMCLocalityContract).
	LocalityUniform Locality = "uniform"
	// LocalityMeasured steers on measured cost: each op carries an
	// exponential moving average of the evaluated-suffix sizes
	// (sim.Stats.SuffixTasks) its proposals actually cost, seeded from
	// the op's SuffixHint, and selection weight falls off exponentially
	// with that average (a softmax over -EMA at temperature
	// localityEMATemp times the mean EMA). The sharp falloff matters:
	// measured suffix costs typically spread less than 2x between the
	// cheapest and dearest op, so a merely proportional weighting would
	// be nearly uniform; the softmax concentrates the walk on the
	// genuinely cheapest ops, which position alone cannot identify (the
	// affected set is the op's dependency cone, not a timeline cut). An
	// occasional uniform redraw (probability 1/8) keeps the walk
	// ergodic.
	LocalityMeasured Locality = "measured"
)

const (
	// localityEscapeProb is LocalityMeasured's uniform escape hatch: the
	// probability a draw ignores the learned weights entirely. The EMA
	// only learns about ops it proposes, so without the escape a
	// mis-seeded op could starve forever.
	localityEscapeProb = 0.125
	// localityEMAAlpha is the EMA step for measured suffix sizes.
	localityEMAAlpha = 0.25
	// localitySeedMargin inflates LocalityMeasured's EMA seeds above the
	// hint × alive-tasks prior. Measured suffix sizes run ~10% above the
	// prior even for the cheapest ops (the truncation bound is the min
	// over the rebuilt ChangeSet, which reaches slightly earlier than
	// the op's own tasks), and an optimistic seed makes every
	// measurement look worse than unexplored territory — the walk then
	// ladders through unmeasured ops, half of which price a full resim.
	// 1.25 keeps seeds pessimistic across the synthetic and real model
	// classes without flattening the prior's ordering.
	localitySeedMargin = 1.25
	// localityEMATemp scales LocalityMeasured's softmax temperature:
	// the weight scale is this fraction of the mean EMA, so an op whose
	// measured suffix sits one scale above the cheapest op is drawn e
	// times less often. Small enough to concentrate on the cheap tail
	// of a sub-2x suffix spread, large enough that measurement noise
	// one EMA step wide does not flip the ordering.
	localityEMATemp = 0.02
	// localityExpClamp caps the softmax exponent so a pathological EMA
	// spread cannot underflow a weight to zero (the sampler requires
	// strictly positive weights); exp(-60) is still a positive, finite
	// probability.
	localityExpClamp = 60.0
)

// Localities lists every recognized policy, in documentation order.
func Localities() []Locality {
	return []Locality{LocalityUniform, LocalityMeasured}
}

// ParseLocality normalizes a policy name: the empty string means
// LocalityUniform (the zero value of Options.Locality), anything else
// must match a constant exactly.
func ParseLocality(s string) (Locality, error) {
	switch Locality(s) {
	case "", LocalityUniform:
		return LocalityUniform, nil
	case LocalityMeasured:
		return LocalityMeasured, nil
	}
	return "", fmt.Errorf("search: unknown locality policy %q (have %v)", s, Localities())
}

// buildCum overwrites cum with the inclusive prefix sums of w and
// returns (cum, total). Every weight must be strictly positive — the
// sampler's invariant; panics otherwise, since weights are built by
// this package and a non-positive one is a bug, not an input error.
func buildCum(w, cum []float64) ([]float64, float64) {
	cum = cum[:0]
	total := 0.0
	for _, x := range w {
		if !(x > 0) {
			panic(fmt.Sprintf("search: locality sampler weight %v is not strictly positive", x))
		}
		total += x
		cum = append(cum, total)
	}
	return cum, total
}

// weightedIndex returns the smallest i with x < cum[i] — the index a
// weighted draw of x ∈ [0, total) selects — clamping float rounding at
// the top end to the last index.
func weightedIndex(cum []float64, x float64) int {
	i := sort.SearchFloat64s(cum, x)
	// SearchFloat64s finds the leftmost i with cum[i] >= x; when x lands
	// exactly on a boundary the draw belongs to the next bucket (each
	// bucket is the half-open [cum[i-1], cum[i])).
	for i < len(cum) && cum[i] == x {
		i++
	}
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return i
}

// localityPicker holds one chain's LocalityMeasured state: the op
// order, the per-op EMA of measured suffix sizes, and the cumulative
// weight table the draws binary-search. It is private to the chain —
// never shared — so the walk stays deterministic for every pool size.
type localityPicker struct {
	ops     []*graph.Op
	order   []int     // positions into ops, ascending op ID
	inv     []int     // ops position -> order entry (inverse of order)
	ema     []float64 // per order entry: EMA of measured suffix tasks
	sampled []bool    // per order entry: ema holds a real measurement
	weight  []float64 // per order entry: selection weight (>0)
	cum     []float64 // inclusive prefix sums of weight
	total   float64
	dirty   bool // weights must be rebuilt before the next draw
}

// newLocalityPicker builds the measured picker over the chain's op set,
// seeding each op's EMA from where its tasks sit in the chain's
// starting timeline.
func newLocalityPicker(ops []*graph.Op, st *sim.State) *localityPicker {
	p := &localityPicker{
		ops:     ops,
		order:   make([]int, len(ops)),
		inv:     make([]int, len(ops)),
		ema:     make([]float64, len(ops)),
		sampled: make([]bool, len(ops)),
		weight:  make([]float64, len(ops)),
		cum:     make([]float64, 0, len(ops)),
		dirty:   true,
	}
	for i := range ops {
		p.order[i] = i
	}
	sort.Slice(p.order, func(a, b int) bool {
		return ops[p.order[a]].ID < ops[p.order[b]].ID
	})
	// Seed the EMA with a *pessimistic* position prior: SuffixHint ×
	// alive tasks, inflated by localitySeedMargin and clamped at the
	// full task count. Per-op suffix cost is bimodal — ops at nearly
	// identical hints either truncate near their own tail (~hint × alive
	// tasks) or collapse to a whole-timeline resim — so an optimistic
	// seed turns the walk into an expensive exploration ladder: every
	// measurement lands above some unmeasured seed and the sampler keeps
	// paying full-resim prices to discover which ops are cheap. Seeding
	// above the true cheap-op cost makes measurement monotone: an
	// observed-cheap op drops below every unexplored seed and the walk
	// fixates on the measured-cheap set, leaving the escape draws to fund
	// further exploration.
	alive := float64(st.TG.Alive())
	for i, pos := range p.order {
		p.inv[pos] = i
		seed := st.SuffixHint(ops[pos].ID) * localitySeedMargin * alive
		if seed > alive {
			seed = alive
		}
		p.ema[i] = seed
	}
	return p
}

// observe folds a measured evaluated-suffix size (tasks) into the EMA
// of the op at position pos in the caller's ops slice. The first
// measurement replaces the seed outright — the seed is a deliberately
// pessimistic prior, and blending toward a real sample three EMA steps
// at a time would keep paying the prior's error for several draws per
// op.
func (p *localityPicker) observe(pos int, suffixTasks float64) {
	i := p.inv[pos]
	if !p.sampled[i] {
		p.sampled[i] = true
		p.ema[i] = suffixTasks
	} else {
		p.ema[i] += localityEMAAlpha * (suffixTasks - p.ema[i])
	}
	p.dirty = true
}

// rebuild recomputes the weight and cumulative tables from the EMA: a
// softmax over the negated EMA, weight exp(-(ema-min)/scale) with scale
// = localityEMATemp × the mean EMA. Suffix costs spread less than 2x on
// the graphs that matter, so the falloff must be exponential to
// concentrate the walk on the cheap tail; the clamp keeps every weight
// strictly positive. A degenerate all-zero EMA (nothing measured,
// nothing seeded) means no signal: every op weighs 1.
func (p *localityPicker) rebuild() {
	min, mean := math.Inf(1), 0.0
	for _, e := range p.ema {
		if e < min {
			min = e
		}
		mean += e
	}
	mean /= float64(len(p.ema))
	scale := localityEMATemp * mean
	for i, e := range p.ema {
		if scale <= 0 {
			p.weight[i] = 1
			continue
		}
		x := (e - min) / scale
		if x > localityExpClamp {
			x = localityExpClamp
		}
		p.weight[i] = math.Exp(-x)
	}
	p.cum, p.total = buildCum(p.weight, p.cum)
	p.dirty = false
}

// pick draws the next op to mutate and returns its position in the
// caller's ops slice. A draw consumes one Float64 deciding the escape
// hatch, then either an Intn (escape) or one more Float64 (weighted).
// All draws come from the chain's private RNG, so the sequence replays
// exactly for a fixed seed.
func (p *localityPicker) pick(rng *rand.Rand) int {
	if rng.Float64() < localityEscapeProb {
		// Uniform escape, drawn over the ID-sorted order so the choice
		// is independent of how the caller enumerated the ops.
		return p.order[rng.Intn(len(p.order))]
	}
	if p.dirty {
		p.rebuild()
	}
	return p.order[weightedIndex(p.cum, rng.Float64()*p.total)]
}
