package engine

import (
	"bytes"
	"testing"
	"time"

	"servicefridge/internal/obs"
	"servicefridge/internal/telemetry"
)

func ledgerBytes(t *testing.T, led *obs.Ledger) string {
	t.Helper()
	var b bytes.Buffer
	if err := led.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestLedgerInstrumentationInvariant is the CLI-vs-control-plane parity
// property: the ledger seals identical bytes whether the run carries just
// the ledger (CLI -ledger), an explicit events recorder (CLI -events
// -ledger), or full telemetry (a control-plane session) — because the
// state digest covers only simulation-visible state and instrumentation
// is passive.
func TestLedgerInstrumentationInvariant(t *testing.T) {
	base := func() Config {
		return Config{
			Seed: 11, Scheme: ServiceFridge, BudgetFraction: 0.8,
			PoolWorkers: map[string]int{"A": 6, "B": 6},
			Warmup:      2 * time.Second, Duration: 4 * time.Second,
		}
	}

	bare := base()
	bare.Ledger = obs.NewLedger()
	mustRun(bare)
	want := ledgerBytes(t, bare.Ledger)
	if want == "" {
		t.Fatal("ledger sealed nothing")
	}

	withEvents := base()
	withEvents.Ledger = obs.NewLedger()
	withEvents.Events = obs.NewRecorder(0)
	mustRun(withEvents)
	if got := ledgerBytes(t, withEvents.Ledger); got != want {
		t.Fatal("explicit events recorder changed the ledger")
	}

	withTelemetry := base()
	withTelemetry.Ledger = obs.NewLedger()
	withTelemetry.Events = obs.NewRecorder(0)
	withTelemetry.Telemetry = telemetry.New(telemetry.Options{})
	mustRun(withTelemetry)
	if got := ledgerBytes(t, withTelemetry.Ledger); got != want {
		t.Fatal("bound telemetry changed the ledger")
	}
}

// TestLedgerDoesNotPerturbRun: attaching a ledger changes no other
// output — same acceptance shape as the events and telemetry layers.
func TestLedgerDoesNotPerturbRun(t *testing.T) {
	cfg := func() Config {
		return Config{
			Seed: 11, Scheme: ServiceFridge, BudgetFraction: 0.8,
			PoolWorkers: map[string]int{"A": 6, "B": 6},
			Warmup:      2 * time.Second, Duration: 4 * time.Second,
			Events: obs.NewRecorder(0),
		}
	}
	plain := mustRun(cfg())
	ledgered := cfg()
	ledgered.Ledger = obs.NewLedger()
	inst := mustRun(ledgered)

	// Drop the ledger from the instrumented result so fingerprint compares
	// the outputs both runs share (the plain run has no ledger section).
	inst.Config.Ledger = nil
	if got, want := fingerprint(t, inst), fingerprint(t, plain); got != want {
		t.Fatal("attaching a ledger perturbed the run")
	}
	if ledgered.Ledger.Len() == 0 {
		t.Fatal("ledger sealed nothing")
	}
}

// TestLedgerSeedSensitivity: different seeds produce different chains —
// the ledger actually fingerprints the run, not just its shape.
func TestLedgerSeedSensitivity(t *testing.T) {
	run := func(seed uint64) string {
		cfg := Config{
			Seed: seed, Scheme: ServiceFridge, BudgetFraction: 0.8,
			PoolWorkers: map[string]int{"A": 6, "B": 6},
			Warmup:      2 * time.Second, Duration: 4 * time.Second,
			Ledger: obs.NewLedger(),
		}
		mustRun(cfg)
		return ledgerBytes(t, cfg.Ledger)
	}
	if run(1) == run(2) {
		t.Fatal("different seeds sealed identical ledgers")
	}
}
