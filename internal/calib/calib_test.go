package calib

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFitRecoversAffineModel(t *testing.T) {
	// Exact points on cost(N) = 2000 + 50·N must be recovered exactly.
	pts := []Point{
		{N: 100, CostNS: 2000 + 50*100},
		{N: 400, CostNS: 2000 + 50*400},
		{N: 900, CostNS: 2000 + 50*900},
	}
	got := Fit(pts, Default().Modes[ModeDelta])
	if diff := got.BaseNS - 2000; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("base = %v, want 2000", got.BaseNS)
	}
	if diff := got.PerTaskNS - 50; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("perTask = %v, want 50", got.PerTaskNS)
	}
}

func TestFitClampsToMonotone(t *testing.T) {
	// Decreasing costs would fit a negative slope; the clamp flattens
	// the model at the mean instead of pricing bigger graphs cheaper.
	pts := []Point{
		{N: 100, CostNS: 9000},
		{N: 1000, CostNS: 3000},
	}
	got := Fit(pts, Default().Modes[ModeDelta])
	if got.PerTaskNS != 0 {
		t.Errorf("clamped slope = %v, want 0", got.PerTaskNS)
	}
	if got.BaseNS != 6000 {
		t.Errorf("flattened base = %v, want mean 6000", got.BaseNS)
	}
	if err := got.validate(); err != nil {
		t.Errorf("clamped fit invalid: %v", err)
	}
}

func TestFitSingleSizeAnchorsIntercept(t *testing.T) {
	// One distinct N is underdetermined: the intercept stays at the
	// fallback and the slope absorbs the measurement.
	fallback := Params{BaseNS: 10_000, PerTaskNS: 100}
	pts := []Point{{N: 200, CostNS: 30_000}, {N: 200, CostNS: 34_000}}
	got := Fit(pts, fallback)
	if got.BaseNS != fallback.BaseNS {
		t.Errorf("anchored base = %v, want %v", got.BaseNS, fallback.BaseNS)
	}
	want := (32_000.0 - 10_000.0) / 200.0
	if diff := got.PerTaskNS - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("slope = %v, want %v", got.PerTaskNS, want)
	}
	if got := Fit(nil, fallback); got != fallback {
		t.Errorf("no points must return the fallback, got %+v", got)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	p := &Profile{
		Version:  Version,
		FittedAt: "2026-07-27T00:00:00Z",
		Source:   "test",
		Modes: map[Mode]Params{
			ModeDelta: {BaseNS: 11_000, PerTaskNS: 120.5},
			ModeFull:  {BaseNS: 13_000, PerTaskNS: 950.25},
		},
		Models: map[string]map[Mode]Params{
			"lenet": {ModeDelta: {BaseNS: 11_000, PerTaskNS: 90}},
		},
	}
	path := filepath.Join(t.TempDir(), "nested", "profile.json")
	if err := Save(p, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed the profile:\nwrote %+v\nread  %+v", p, got)
	}
}

// TestLoadFallsBackToDefaults covers the failure ladder: missing file,
// corrupt JSON, version skew and non-monotone parameters all surface an
// error and no profile, so a caller that warns and carries on installs
// nothing and budgets stay priced by the built-in defaults.
func TestLoadFallsBackToDefaults(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mutate func(p *Profile)) string {
		p := Default()
		p.FittedAt = "2026-07-27T00:00:00Z"
		p.Source = "test"
		mutate(p)
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name    string
		path    string
		wantErr string
	}{
		{"missing", filepath.Join(dir, "nope.json"), "reading profile"},
		{"corrupt", func() string {
			path := filepath.Join(dir, "corrupt.json")
			if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}(), "parsing profile"},
		{"version-skew", write("skew.json", func(p *Profile) { p.Version = Version + 1 }), "version"},
		{"non-monotone", write("negslope.json", func(p *Profile) {
			p.Modes[ModeDelta] = Params{BaseNS: 1000, PerTaskNS: -5}
		}), "monotone"},
		{"missing-mode", write("nomode.json", func(p *Profile) { delete(p.Modes, ModeFull) }), "missing mode"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Load(c.path)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("warning = %v, want mention of %q", err, c.wantErr)
			}
			if p != nil {
				t.Fatalf("Load returned a profile alongside its error: %+v", p)
			}
		})
	}
}

// TestInstall pins the process-wide slot: installing a profile makes it
// Active, the previous profile comes back for scoped swaps, and nil
// restores the built-in defaults.
func TestInstall(t *testing.T) {
	fixed := &Profile{
		Version: Version,
		Modes: map[Mode]Params{
			ModeDelta: {BaseNS: 1000, PerTaskNS: 10},
			ModeFull:  {BaseNS: 1000, PerTaskNS: 100},
		},
	}
	prev := Install(fixed)
	defer Install(prev)
	if Active() != fixed {
		t.Fatal("installed profile not active")
	}
	if restored := Install(nil); restored != fixed {
		t.Fatal("Install did not return the previous profile")
	}
	if got := Active(); got != nil {
		t.Fatalf("nil did not restore the built-in defaults: %+v", got)
	}
}

// TestPrecedenceChain pins the resolution order: per-model override
// beats the profile's fitted modes, which beat the built-in defaults;
// unknown models skip the override tier; a nil profile resolves to the
// defaults.
func TestPrecedenceChain(t *testing.T) {
	p := &Profile{
		Version: Version,
		Modes: map[Mode]Params{
			ModeDelta: {BaseNS: 50_000, PerTaskNS: 500},
		},
		Models: map[string]map[Mode]Params{
			"nmt": {ModeDelta: {BaseNS: 70_000, PerTaskNS: 700}},
		},
	}
	if got := p.ParamsFor("nmt", ModeDelta); got.BaseNS != 70_000 {
		t.Errorf("override not applied: %+v", got)
	}
	if got := p.ParamsFor("lenet", ModeDelta); got.BaseNS != 50_000 {
		t.Errorf("fitted mode not applied for unknown model: %+v", got)
	}
	// ModeFull is absent from the profile: fall through to builtin.
	if got, want := p.ParamsFor("lenet", ModeFull), Default().Modes[ModeFull]; got != want {
		t.Errorf("builtin fallback not applied: %+v", got)
	}
	var nilProf *Profile
	if got, want := nilProf.ParamsFor("nmt", ModeDelta), Default().Modes[ModeDelta]; got != want {
		t.Errorf("nil profile must resolve to defaults: %+v", got)
	}
	// ProposalCost goes through the same chain.
	if got, want := p.ProposalCost("nmt", 10, false), time.Duration(70_000+10*700); got != want {
		t.Errorf("ProposalCost = %v, want %v", got, want)
	}
}

func TestProposalCostMonotoneInN(t *testing.T) {
	for _, p := range []*Profile{Default(), {
		Version: Version,
		Modes: map[Mode]Params{
			ModeDelta: {BaseNS: 100, PerTaskNS: 0}, // flat is the monotone edge case
			ModeFull:  {BaseNS: 100, PerTaskNS: 3},
		},
	}} {
		for _, full := range []bool{false, true} {
			prev := time.Duration(0)
			for _, n := range []int{1, 10, 100, 1000, 10_000} {
				c := p.ProposalCost("m", n, full)
				if c < prev {
					t.Fatalf("cost not monotone in N: %v at N=%d after %v", c, n, prev)
				}
				prev = c
			}
		}
	}
}

// TestCalibrateSmoke runs a miniature end-to-end calibration (the CI
// smoke does the same through the CLI): the fit must validate, stay
// monotone, and record a per-model override for every measured model.
func TestCalibrateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock micro-benchmark; skipped in -short")
	}
	prof, err := Calibrate(context.Background(), Options{
		Models:         []string{"lenet"},
		Scale:          16,
		Batches:        1,
		DeltaProposals: 60,
		FullProposals:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Validate(); err != nil {
		t.Fatalf("calibrated profile invalid: %v", err)
	}
	if _, ok := prof.Models["lenet"]; !ok {
		t.Fatalf("no per-model override recorded: %+v", prof.Models)
	}
	for _, mode := range Modes() {
		params := prof.ParamsFor("lenet", mode)
		if params.Cost(10) > params.Cost(10_000) {
			t.Fatalf("%s: fitted cost not monotone in N: %+v", mode, params)
		}
	}
	// A measured profile must round-trip through persistence untouched.
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := Save(prof, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prof, got) {
		t.Fatalf("measured profile did not round-trip")
	}
}

func TestCalibrateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Calibrate(ctx, Options{Models: []string{"lenet"}, Scale: 16}); err == nil {
		t.Fatal("pre-cancelled calibration did not return an error")
	}
}

func TestDescribe(t *testing.T) {
	if got := Default().Describe(); !strings.Contains(got, "builtin") {
		t.Errorf("builtin description = %q", got)
	}
	p := &Profile{Version: Version, Source: "measured on testhost", FittedAt: "2026-07-27T00:00:00Z"}
	if got := p.Describe(); !strings.Contains(got, "testhost") || !strings.Contains(got, "2026-07-27") {
		t.Errorf("measured description = %q", got)
	}
}
