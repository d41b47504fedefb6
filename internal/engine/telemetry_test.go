package engine

import (
	"bytes"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"servicefridge/internal/obs"
	"servicefridge/internal/telemetry"
)

// telemetryRun runs the standard quick scenario with a bound Telemetry
// and an events recorder, optionally hammering /metrics and /status from
// concurrent scrapers for the whole run.
func telemetryRun(t *testing.T, seed uint64, scrape bool) (*Result, *obs.Recorder, *telemetry.Telemetry) {
	t.Helper()
	rec := obs.NewRecorder(0)
	tel := telemetry.New(telemetry.Options{})
	res, err := BuildE(quick(Config{
		Seed: seed, Scheme: ServiceFridge, BudgetFraction: 0.8,
		Events: rec, Telemetry: tel,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if scrape {
		tel.SetPublishing(true)
		srv := httptest.NewServer(telemetry.NewHandler(tel))
		defer srv.Close()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, path := range []string{"/metrics", "/status", "/healthz"} {
						resp, err := srv.Client().Get(srv.URL + path)
						if err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				}
			}()
		}
		defer wg.Wait()
		defer close(stop)
	}
	res.Finish()
	return res, rec, tel
}

// TestTelemetryDoesNotPerturbRun is the tentpole's acceptance check:
// a run with telemetry bound — and concurrent scrapers hitting the HTTP
// endpoints throughout — produces byte-identical controller event JSONL
// and identical results to the same seed without telemetry.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	plainRec := obs.NewRecorder(0)
	plain := mustRun(quick(Config{Seed: 3, Scheme: ServiceFridge, BudgetFraction: 0.8, Events: plainRec}))
	inst, instRec, tel := telemetryRun(t, 3, true)

	if plain.Executor.Completed() != inst.Executor.Completed() {
		t.Fatalf("completed %d vs %d", plain.Executor.Completed(), inst.Executor.Completed())
	}
	if plain.Summary("A") != inst.Summary("A") || plain.Summary("B") != inst.Summary("B") {
		t.Fatal("latency summaries diverge under telemetry")
	}
	if plain.Fridge.Promotions() != inst.Fridge.Promotions() ||
		plain.Fridge.Demotions() != inst.Fridge.Demotions() ||
		plain.Orch.Migrations() != inst.Orch.Migrations() {
		t.Fatal("controller decisions diverge under telemetry")
	}
	var a, b bytes.Buffer
	if err := plainRec.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := instRec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("controller event JSONL diverges under telemetry")
	}
	if tel.Len() == 0 {
		t.Fatal("telemetry sampled nothing")
	}
}

// TestTelemetryCapturesRunState spot-checks that a real run fills the
// probe-backed fields: cluster power, zones, warm utilization, MCF, and
// the latency windows.
func TestTelemetryCapturesRunState(t *testing.T) {
	_, _, tel := telemetryRun(t, 1, false)
	samples := tel.Samples()
	last := samples[len(samples)-1]
	if !last.HasCluster || last.PowerW <= 0 || last.BudgetW <= 0 {
		t.Fatalf("cluster fields unset: %+v", last)
	}
	if !last.HasZones || last.ZoneGHz[0] <= 0 {
		t.Fatalf("zone fields unset: %+v", last)
	}
	if !last.HasMCF {
		t.Fatalf("MCF fields unset: %+v", last)
	}
	// The warm zone can legitimately be empty at any given instant; the
	// probe must have reported utilization at some point in the run.
	var sawWarm bool
	for i := range samples {
		if samples[i].HasWarm {
			sawWarm = true
			break
		}
	}
	if !sawWarm {
		t.Fatal("no sample captured warm-zone utilization")
	}
	if last.All.Count == 0 || last.All.P95 <= 0 {
		t.Fatalf("latency window empty at end of run: %+v", last.All)
	}
	if last.Requests == 0 || last.Spans == 0 {
		t.Fatalf("counters unset: %+v", last)
	}
	var nonEmptyMCF bool
	for _, v := range last.MCF {
		if v > 0 {
			nonEmptyMCF = true
		}
	}
	if !nonEmptyMCF {
		t.Fatal("all MCF values zero at end of run")
	}
}

// TestTelemetryCSVDeterministicAcrossRuns is the per-run half of the CI
// determinism gate on -timeseries exports.
func TestTelemetryCSVDeterministicAcrossRuns(t *testing.T) {
	export := func() []byte {
		_, _, tel := telemetryRun(t, 3, false)
		var buf bytes.Buffer
		if err := tel.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("same seed produced different timeseries CSV")
	}
}

// TestTelemetrySLOTripsUnderTightBudget drives a heavily throttled run
// long enough for the SLO monitor to trip and checks the report plumbing.
func TestTelemetrySLOTripsUnderTightBudget(t *testing.T) {
	rec := obs.NewRecorder(0)
	tel := telemetry.New(telemetry.Options{
		SLO: telemetry.SLOOptions{
			Target: 35 * time.Millisecond, Grace: 2 * time.Second,
		},
	})
	mustRun(quick(Config{
		Seed: 1, Scheme: Capping, BudgetFraction: 0.7,
		Events: rec, Telemetry: tel,
	}))
	report := tel.SLOReport()
	if report[0].Series != "all" || report[0].EvalTicks == 0 {
		t.Fatalf("report not evaluated: %+v", report[0])
	}
	var tripped bool
	for _, r := range report {
		if r.FirstViolation >= 0 {
			tripped = true
			if r.ViolationTicks == 0 {
				t.Fatalf("series %s tripped but has no violation ticks", r.Series)
			}
		}
	}
	if !tripped {
		t.Skip("scenario did not violate the tightened SLO; nothing to check")
	}
	if tel.Alerts().Len() == 0 {
		t.Fatal("violations reported but no alert events recorded")
	}
}
