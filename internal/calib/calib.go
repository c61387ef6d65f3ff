// Package calib fits, persists and installs the measured virtual-time
// cost profile that prices the search package's deterministic budgets.
//
// A budgeted MCMC run charges every proposal a deterministic virtual
// cost so that Budget/cost is a fixed proposal count and the run
// replays bit-identically for any worker count (see internal/search).
// The exchange rate between virtual seconds and wall seconds is only as
// good as the profile behind it: the built-in constants are
// order-of-magnitude guesses. This package replaces the guesses with
// measurement — Calibrate times batches of real proposals against
// compiled task-graph Plans across the model zoo, least-squares-fits
// the affine model
//
//	cost(N) = Base + PerTask·N
//
// per simulation mode (delta vs. full, the Table 4 pair of
// conf_mlsys_JiaZA19), and records the result as a Profile that can be
// persisted to JSON, reloaded, and installed.
//
// One process-wide slot holds the profile in effect (Install/Active).
// Prices resolve through a fixed three-level chain, weakest first:
//
//  1. built-in defaults (Default — the historic hand-guessed constants),
//  2. the installed profile's fitted per-mode parameters
//     (Profile.Modes),
//  3. that profile's per-model overrides (Profile.Models, keyed by
//     graph name).
//
// A search reads the slot once, before its chains fan out, and a
// Profile is immutable once installed: for a fixed profile, budgeted
// runs stay bit-identical across invocations and pool sizes, exactly as
// with the built-in constants.
package calib

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Mode names a simulation algorithm being priced: the delta algorithm
// re-times only the neighbourhood of a changed op, the full algorithm
// rebuilds and re-times the whole task graph (Section 5.2).
type Mode string

// The two priced simulation modes.
const (
	// ModeDelta is the delta simulation algorithm (Section 5.3).
	ModeDelta Mode = "delta"
	// ModeFull is the full simulation algorithm (Algorithm 1).
	ModeFull Mode = "full"
)

// Modes lists the priced simulation modes in a fixed order.
func Modes() []Mode { return []Mode{ModeDelta, ModeFull} }

// modeOf maps the search package's fullSim flag onto a Mode.
func modeOf(fullSim bool) Mode {
	if fullSim {
		return ModeFull
	}
	return ModeDelta
}

// Params is one affine per-proposal cost model,
// cost(N) = BaseNS + PerTaskNS·N nanoseconds for a task graph of N
// tasks. A valid Params is monotone in N: BaseNS > 0 and PerTaskNS >= 0.
type Params struct {
	// BaseNS is the fixed per-proposal overhead in nanoseconds.
	BaseNS float64 `json:"base_ns"`
	// PerTaskNS is the marginal cost per task in nanoseconds.
	PerTaskNS float64 `json:"per_task_ns"`
}

// Cost prices one proposal on a task graph of numTasks tasks.
func (p Params) Cost(numTasks int) time.Duration {
	ns := p.BaseNS + p.PerTaskNS*float64(numTasks)
	if ns < 1 {
		ns = 1
	}
	return time.Duration(math.Round(ns))
}

// validate reports why the params are unusable (non-finite or
// non-monotone in N), or nil.
func (p Params) validate() error {
	if math.IsNaN(p.BaseNS) || math.IsInf(p.BaseNS, 0) ||
		math.IsNaN(p.PerTaskNS) || math.IsInf(p.PerTaskNS, 0) {
		return fmt.Errorf("non-finite parameters %+v", p)
	}
	if p.BaseNS <= 0 {
		return fmt.Errorf("base %v ns must be positive", p.BaseNS)
	}
	if p.PerTaskNS < 0 {
		return fmt.Errorf("per-task %v ns must be non-negative (cost must be monotone in graph size)", p.PerTaskNS)
	}
	return nil
}

// Version is the persisted profile schema version; Load rejects files
// written with any other version (the caller falls back to defaults).
const Version = 1

// Profile is a cost profile: fitted per-mode parameters plus optional
// per-model overrides, resolved through ParamsFor's precedence chain.
// The zero value is unusable; start from Default, Fit or Load.
type Profile struct {
	// Version is the schema version (see the package constant).
	Version int `json:"version"`
	// FittedAt records when Calibrate produced the profile (RFC 3339);
	// empty for the built-in defaults.
	FittedAt string `json:"fitted_at,omitempty"`
	// Source describes what produced the profile ("builtin", or a
	// host/measurement description from Calibrate).
	Source string `json:"source,omitempty"`
	// Modes holds the fitted global parameters per simulation mode.
	Modes map[Mode]Params `json:"modes"`
	// Models holds per-model overrides keyed by graph name (the model
	// zoo registry names: "lenet", "nmt", ...). An override wins over
	// Modes for graphs with that name.
	Models map[string]map[Mode]Params `json:"models,omitempty"`
}

// Default returns the built-in profile: the historic order-of-magnitude
// constants of internal/search (25µs per proposal plus 100ns/task delta,
// 1µs/task full). It is the fallback at the bottom of the precedence
// chain and the profile in effect when none has been installed.
func Default() *Profile {
	return &Profile{
		Version: Version,
		Source:  "builtin",
		Modes: map[Mode]Params{
			ModeDelta: {BaseNS: 25_000, PerTaskNS: 100},
			ModeFull:  {BaseNS: 25_000, PerTaskNS: 1_000},
		},
	}
}

// active is the installed profile; nil means Default prices budgets.
var active atomic.Pointer[Profile]

// Install makes p the profile that prices every budgeted search started
// from now on and returns the previously installed one (nil when the
// built-in defaults were in effect). Passing nil restores the built-in
// defaults. The caller must not mutate p afterwards.
func Install(p *Profile) *Profile { return active.Swap(p) }

// Active returns the installed profile, or nil when budgets are priced
// by Default.
func Active() *Profile { return active.Load() }

// ParamsFor resolves the parameters for (model, mode) through the
// precedence chain: the profile's per-model override, then its fitted
// per-mode parameters, then the built-in defaults. Unknown model names
// simply skip the override step.
func (p *Profile) ParamsFor(model string, mode Mode) Params {
	if p != nil {
		if byMode, ok := p.Models[model]; ok {
			if params, ok := byMode[mode]; ok && params.validate() == nil {
				return params
			}
		}
		if params, ok := p.Modes[mode]; ok && params.validate() == nil {
			return params
		}
	}
	return Default().Modes[mode]
}

// ProposalCost prices one proposal for a graph named model with
// numTasks tasks under the given simulation mode.
func (p *Profile) ProposalCost(model string, numTasks int, fullSim bool) time.Duration {
	return p.ParamsFor(model, modeOf(fullSim)).Cost(numTasks)
}

// Validate reports why the profile cannot be used (version skew,
// missing modes, non-monotone parameters), or nil. Load runs it on
// every file it reads.
func (p *Profile) Validate() error {
	if p == nil {
		return fmt.Errorf("calib: nil profile")
	}
	if p.Version != Version {
		return fmt.Errorf("calib: profile version %d, this binary reads version %d", p.Version, Version)
	}
	for _, mode := range Modes() {
		params, ok := p.Modes[mode]
		if !ok {
			return fmt.Errorf("calib: profile missing mode %q", mode)
		}
		if err := params.validate(); err != nil {
			return fmt.Errorf("calib: mode %q: %w", mode, err)
		}
	}
	for model, byMode := range p.Models {
		for mode, params := range byMode {
			if err := params.validate(); err != nil {
				return fmt.Errorf("calib: model %q mode %q: %w", model, mode, err)
			}
		}
	}
	return nil
}

// Describe summarizes the profile's provenance for logs and reports.
func (p *Profile) Describe() string {
	if p == nil || p.Source == "builtin" || (p.Source == "" && p.FittedAt == "") {
		return "builtin defaults (order-of-magnitude constants)"
	}
	s := p.Source
	if s == "" {
		s = "measured"
	}
	if p.FittedAt != "" {
		return fmt.Sprintf("%s, fitted %s", s, p.FittedAt)
	}
	return s
}

// Point is one calibration measurement: the mean per-proposal cost
// observed on a task graph of N tasks.
type Point struct {
	// N is the task-graph size the batch ran against.
	N int
	// CostNS is the measured mean cost per proposal in nanoseconds.
	CostNS float64
	// Model names the graph the point was measured on.
	Model string
}

// Fit least-squares-fits cost(N) = Base + PerTask·N to the points and
// clamps the result to a valid (monotone) Params. With a single
// distinct N the system is underdetermined; the intercept is then
// anchored at fallback.BaseNS and only the slope is fitted.
func Fit(points []Point, fallback Params) Params {
	if len(points) == 0 {
		return fallback
	}
	var sx, sy, sxx, sxy float64
	distinct := map[int]bool{}
	for _, pt := range points {
		x, y := float64(pt.N), pt.CostNS
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		distinct[pt.N] = true
	}
	n := float64(len(points))
	if len(distinct) < 2 {
		// One graph size: anchor the intercept, fit the slope.
		slope := (sy/n - fallback.BaseNS) / (sx / n)
		return clampParams(Params{BaseNS: fallback.BaseNS, PerTaskNS: slope}, sy/n)
	}
	det := n*sxx - sx*sx
	slope := (n*sxy - sx*sy) / det
	base := (sy - slope*sx) / n
	return clampParams(Params{BaseNS: base, PerTaskNS: slope}, sy/n)
}

// clampParams forces a fit onto the valid (monotone) domain: a negative
// slope becomes a flat model at the mean cost, a non-positive intercept
// is raised to a nominal 1ns floor.
func clampParams(p Params, meanNS float64) Params {
	if math.IsNaN(p.BaseNS) || math.IsInf(p.BaseNS, 0) ||
		math.IsNaN(p.PerTaskNS) || math.IsInf(p.PerTaskNS, 0) {
		return Params{BaseNS: math.Max(meanNS, 1), PerTaskNS: 0}
	}
	if p.PerTaskNS < 0 {
		return Params{BaseNS: math.Max(meanNS, 1), PerTaskNS: 0}
	}
	if p.BaseNS < 1 {
		p.BaseNS = 1
	}
	return p
}
