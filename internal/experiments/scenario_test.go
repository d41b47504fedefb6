package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/cliutil"
	"servicefridge/internal/engine"
)

// TestScenarioZeroIsTable4 checks that the empty spec normalizes to the
// cmd/fridge flag defaults — the paper's Table-4 study configuration.
func TestScenarioZeroIsTable4(t *testing.T) {
	s, err := Scenario{}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if s.Scheme != "Baseline" || s.Budget != 1.0 || s.Workers != 50 ||
		s.WarmupS != 5 || s.DurationS != 30 ||
		s.Seed != 1 || s.App != "study" || s.TickMS != 1000 {
		t.Fatalf("unexpected normalized defaults: %+v", s)
	}
	if s.MixA != nil || s.MixB != nil {
		t.Fatalf("normalization kept legacy mixA/mixB: %+v", s)
	}
	if len(s.Mix) != 2 || s.Mix["A"] != 1 || s.Mix["B"] != 1 {
		t.Fatalf("unexpected normalized mix: %+v", s.Mix)
	}
	tel := s.Telemetry
	if tel == nil || tel.IntervalMS != 1000 || tel.WindowTicks != 10 || tel.SLOTargetMS != 100 {
		t.Fatalf("unexpected telemetry defaults: %+v", tel)
	}
	if got, want := s.SLOTarget(), 100*time.Millisecond; got != want {
		t.Fatalf("SLOTarget() = %v, want %v", got, want)
	}
}

// TestScenarioCanonicalBytes: two specs describing the same run must
// marshal to identical bytes once normalized.
func TestScenarioCanonicalBytes(t *testing.T) {
	a, err := LoadScenario(strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("load a: %v", err)
	}
	b, err := LoadScenario(strings.NewReader(
		`{"scheme":"Baseline","budget":1,"workers":50,"seed":1,"app":"study"}`))
	if err != nil {
		t.Fatalf("load b: %v", err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("normalized marshals differ:\n%s\n%s", ja, jb)
	}
	// The legacy mixA/mixB pair and the equivalent mix map collapse to the
	// same canonical bytes.
	c, err := LoadScenario(strings.NewReader(`{"mixA":2,"mixB":1}`))
	if err != nil {
		t.Fatalf("load c: %v", err)
	}
	d, err := LoadScenario(strings.NewReader(`{"mix":{"A":2,"B":1}}`))
	if err != nil {
		t.Fatalf("load d: %v", err)
	}
	jc, _ := json.Marshal(c)
	jd, _ := json.Marshal(d)
	if string(jc) != string(jd) {
		t.Fatalf("mixA/mixB did not collapse into mix:\n%s\n%s", jc, jd)
	}
	// An explicit zero drops the region from the canonical map.
	e, err := LoadScenario(strings.NewReader(`{"mixA":0,"mixB":1}`))
	if err != nil {
		t.Fatalf("load e: %v", err)
	}
	if len(e.Mix) != 1 || e.Mix["B"] != 1 {
		t.Fatalf("zero mixA survived the collapse: %+v", e.Mix)
	}
}

// TestScenarioConfigMatchesCLI runs the same short scenario through the
// Scenario mapping and through the config construction cmd/fridge does,
// and requires identical results.
func TestScenarioConfigMatchesCLI(t *testing.T) {
	sc := Scenario{Scheme: "ServiceFridge", Budget: 0.8, Workers: 20,
		WarmupS: 1, DurationS: 3, Seed: 7}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}

	spec, err := cliutil.LoadSpec("study", "")
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	cli := engine.Config{
		Seed:           7,
		Spec:           spec,
		Scheme:         engine.SchemeName("ServiceFridge"),
		BudgetFraction: 0.8,
		Workers:        20,
		Mix:            cliutil.MixFor(spec, 1, 1),
		Warmup:         time.Second,
		Duration:       3 * time.Second,
	}

	got := run(cfg)
	want := run(cli)
	for _, region := range []string{"", "A", "B"} {
		if g, w := got.Summary(region), want.Summary(region); g != w {
			t.Fatalf("region %q: scenario run %+v differs from CLI run %+v", region, g, w)
		}
	}
	if g, w := got.Orch.Migrations(), want.Orch.Migrations(); g != w {
		t.Fatalf("migrations %d != %d", g, w)
	}
}

// TestScenarioMixMap exercises the generic region→weight mix path.
func TestScenarioMixMap(t *testing.T) {
	// Region A (Advanced Search) responses take seconds each, so the
	// measured window has to be long enough for completions to land.
	sc := Scenario{Mix: map[string]float64{"A": 2, "B": 0}, WarmupS: 1, DurationS: 9}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	res := run(cfg)
	if n := res.Summary("B").Count; n != 0 {
		t.Fatalf("region B got %d requests despite zero weight", n)
	}
	if n := res.Summary("A").Count; n == 0 {
		t.Fatal("region A got no requests")
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Scheme: "NoSuchScheme"},
		{Budget: 1.5},
		{Budget: -0.1},
		{Workers: -1},
		{Workers: maxWorkers + 1},
		{Telemetry: &ScenarioTelemetry{WindowTicks: maxWindowTicks + 1}},
		{App: "tiny"},
		{MixA: ptr(1), Mix: map[string]float64{"A": 1}},
		{Mix: map[string]float64{"Z": 1}},
		{Mix: map[string]float64{"A": 0}},
		{MixA: ptr(0.0), MixB: ptr(0.0)},
		{MixA: ptr(-1.0)},
		{App: "socialnet", MixA: ptr(1)},
		{WarmupS: -1},
		{TickMS: -5},
	}
	for i, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("case %d: Normalize accepted invalid scenario %+v", i, s)
		}
	}
	// Spans whose nanoseconds overflow int64 are rejected by name instead
	// of wrapping to negative durations.
	for _, c := range []struct{ body, field string }{
		{`{"duration_s":1e10}`, "duration_s"},
		{`{"warmup_s":1e10}`, "warmup_s"},
		{`{"warmup_s":5e9,"duration_s":5e9}`, "warmup_s + duration_s"},
		{`{"tick_ms":1e13}`, "tick_ms"},
		{`{"telemetry":{"interval_ms":1e13}}`, "interval_ms"},
		{`{"telemetry":{"slo_target_ms":1e13}}`, "slo_target_ms"},
	} {
		if _, err := LoadScenario(strings.NewReader(c.body)); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("LoadScenario(%s) = %v, want an overflow error naming %s", c.body, err, c.field)
		}
	}
	if _, err := LoadScenario(strings.NewReader(`{"schem":"Baseline"}`)); err == nil {
		t.Error("LoadScenario accepted an unknown field")
	}
	if _, err := LoadScenario(strings.NewReader(`{} {}`)); err == nil {
		t.Error("LoadScenario accepted trailing data")
	}
}

func ptr(f float64) *float64 { return &f }

// FuzzLoadScenario: any input loads to an error or to a scenario whose
// Config either fails or builds — with the scenario's telemetry bound, as
// the control plane and the CLIs run it — through engine.BuildE. Never a
// panic.
func FuzzLoadScenario(f *testing.F) {
	seeds, _ := filepath.Glob("../../testdata/scenarios/*.json")
	smoke, _ := filepath.Glob("../../testdata/service_smoke/scenario*.json")
	seeds = append(seeds, smoke...)
	if len(seeds) == 0 {
		f.Fatal("no scenario seeds")
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		cfg, err := s.Config()
		if err != nil {
			return
		}
		cfg.Telemetry = s.NewTelemetry()
		if _, err := engine.BuildE(cfg); err != nil {
			t.Fatalf("BuildE rejects the config of accepted scenario %s: %v", data, err)
		}
	})
}
