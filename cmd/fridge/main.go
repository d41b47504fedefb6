// Command fridge runs one ServiceFridge experiment scenario and prints the
// latency and power results.
//
// Usage:
//
//	fridge -scheme ServiceFridge -budget 0.8 -workers 50 -mixA 30 -mixB 20 -duration 30s
//	fridge -scheme ServiceFridge -budget 0.8 -timeseries run.csv
//	fridge -scheme ServiceFridge -ledger run.ledger.jsonl     # hash-chained run ledger (diff with cmd/simdiff)
//	fridge -workload diurnal -rate 40 -app socialnet          # time-varying open-loop traffic
//	fridge -trace testdata/traces/diurnal_day.csv             # replay a recorded t,region,rate trace
//	fridge -scheme ServiceFridge -budget 0.8 -listen :8080   # live /metrics + control plane
//	fridge -serve -listen :8080                              # control plane only, no local run
//	fridge -scheme ServiceFridge -sweep 1.0,0.9,0.8,0.75 -warmstart
//
// With -listen the process serves Prometheus text-format /metrics, a JSON
// /status snapshot, /healthz, Go's /debug/pprof endpoints, and the
// simulation control plane under /sessions (POST a scenario spec, poll
// it, stream its telemetry, ask what-if questions — see internal/server)
// while the local simulation runs, and keeps serving after the results
// print until interrupted.
// Serving is read-only off atomically published snapshots, so scraping
// never perturbs the (deterministic) run. -serve skips the local run and
// only serves the control plane.
//
// With -sweep the command runs one cell per budget fraction and prints a
// compact comparison table instead of the single-run report. Adding
// -warmstart simulates the shared warmup once, snapshots the engine at the
// budget-independence barrier, and forks every cell from that snapshot —
// the numbers are byte-identical to cold runs, only the wall clock drops.
//
// -profile writes the simulator's own per-phase wall-time breakdown
// (build/dispatch/exec/tick/mcf/...) as JSON with a sorted table on
// stderr; it combines with every mode, including -sweep (one label per
// cold cell), because phase profiling is passive — all simulation
// outputs are byte-identical with it on. -cpuprofile/-memprofile write
// Go pprof profiles of the process itself.
//
// All flag and configuration validation happens before any socket is
// bound, so a bad spec can never leave a half-started listener behind.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"servicefridge/internal/cliutil"
	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
	"servicefridge/internal/obs"
	"servicefridge/internal/schemes"
	"servicefridge/internal/server"
	"servicefridge/internal/telemetry"
	"servicefridge/internal/trace"
)

func main() {
	var (
		scheme    = flag.String("scheme", "Baseline", "power scheme: "+strings.Join(schemes.Names(), ", "))
		budget    = flag.Float64("budget", 1.0, "power budget fraction of maximum (0.75..1.0)")
		workers   = flag.Int("workers", 50, "closed-loop worker count (0 when a -workload/-trace drives the run)")
		mixA      = flag.Float64("mixA", 1, "weight of region A (Advanced Search) requests")
		mixB      = flag.Float64("mixB", 1, "weight of region B (Basic Ticketing) requests")
		duration  = flag.Duration("duration", 30*time.Second, "measured duration after warmup")
		warmup    = flag.Duration("warmup", 5*time.Second, "warmup duration (discarded)")
		seed      = flag.Uint64("seed", 1, "random seed")
		sweep     = flag.String("sweep", "", "comma-separated budget fractions to sweep (overrides -budget); prints one row per cell")
		warm      = flag.Bool("warmstart", false, "with -sweep: simulate warmup once and fork each cell from a snapshot (byte-identical results)")
		serve     = flag.Bool("serve", false, "with -listen: serve the control plane only, without a local run")
		wl        cliutil.WorkloadFlags
		exports   cliutil.ExportFlags
		telFlags  cliutil.TelemetryFlags
		profFlags cliutil.ProfileFlags
	)
	wl.Bind(flag.CommandLine)
	exports.Bind(flag.CommandLine, 1)
	telFlags.BindServe(flag.CommandLine)
	profFlags.Bind(flag.CommandLine)
	flag.Parse()

	spec, err := wl.LoadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// A time-varying workload drives the traffic; the closed-loop worker
	// pool stays stopped unless -workers was set explicitly.
	if wl.Active() && !flagSet("workers") {
		*workers = 0
	}

	cfg := engine.Config{
		Seed:           *seed,
		Spec:           spec,
		Scheme:         engine.SchemeName(*scheme),
		BudgetFraction: *budget,
		Workers:        *workers,
		Mix:            cliutil.MixFor(spec, *mixA, *mixB),
		Warmup:         *warmup,
		Duration:       *duration,
		KeepSpans:      exports.Traces != "",
	}
	if ws, err := wl.Workload(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	} else if ws != nil {
		norm, err := ws.Normalize((*warmup + *duration).Seconds())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		prof, err := norm.Build(spec.RegionNames(), *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Profile = prof
		cfg.ProfileClosed = norm.Closed
	}

	// Everything below validates before any listener binds: a bad sweep
	// spec, flag combination or configuration must not leak a socket.
	// Profiling flags do combine with -sweep: phase profiling is passive,
	// so a sweep profiles fine (one label per cell).
	if *sweep != "" {
		if exports.Events != "" || exports.Traces != "" || exports.Ledger != "" || telFlags.Timeseries != "" || telFlags.Listen != "" {
			fmt.Fprintln(os.Stderr, "fridge: -sweep does not combine with exports or -listen")
			os.Exit(1)
		}
		fracs, err := cliutil.ParseSweep(*sweep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fridge: %v\n", err)
			os.Exit(1)
		}
		if err := cliutil.CheckWritable(profFlags.Paths()...); err != nil {
			fmt.Fprintf(os.Stderr, "fridge: %v\n", err)
			os.Exit(1)
		}
		if err := profFlags.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "fridge: %v\n", err)
			os.Exit(1)
		}
		if err := runSweep(cfg, fracs, *warm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := profFlags.Finish(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "fridge: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *serve && telFlags.Listen == "" {
		fmt.Fprintln(os.Stderr, "fridge: -serve requires -listen")
		os.Exit(1)
	}
	if *serve && (exports.Events != "" || exports.Traces != "" || telFlags.Timeseries != "") {
		fmt.Fprintln(os.Stderr, "fridge: -serve does not combine with exports (sessions carry their own telemetry)")
		os.Exit(1)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Export destinations are probed before the run (and before any
	// listener binds): an unwritable path fails now, not after minutes of
	// simulation.
	paths := append([]string{exports.Events, exports.Traces, exports.Ledger, telFlags.Timeseries},
		profFlags.Paths()...)
	if err := cliutil.CheckWritable(paths...); err != nil {
		fmt.Fprintf(os.Stderr, "fridge: %v\n", err)
		os.Exit(1)
	}

	if exports.Events != "" {
		cfg.Events = obs.NewRecorder(0)
	}
	if exports.Ledger != "" {
		cfg.Ledger = obs.NewLedger()
	}
	tel := telFlags.New(*warmup)
	cfg.Telemetry = tel

	// The listener starts before the run so scrapers can watch it live;
	// handlers read published snapshots only and never touch the sim.
	// The same mux carries the local run's telemetry and the control
	// plane's sessions.
	var served string
	if telFlags.Listen != "" {
		tel.SetPublishing(true)
		ln, err := net.Listen("tcp", telFlags.Listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "listen: %v\n", err)
			os.Exit(1)
		}
		served = ln.Addr().String()
		mux := http.NewServeMux()
		telemetry.Register(mux, tel)
		server.New(server.Options{}).Register(mux)
		// Go's pprof endpoints, registered by hand because this is a
		// private mux, not http.DefaultServeMux. Combined with the pprof
		// labels the runs execute under, `go tool pprof
		// http://host/debug/pprof/profile` attributes CPU per session.
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		// ReadHeaderTimeout drops clients that open a connection and
		// never finish their request headers.
		go (&http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}).Serve(ln)
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", served)
		fmt.Fprintf(os.Stderr, "control plane: POST scenarios to http://%s/sessions\n", served)
	}

	if *serve {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		return
	}

	if err := profFlags.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "fridge: %v\n", err)
		os.Exit(1)
	}
	res, err := engine.BuildE(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pprof.Do(context.Background(), pprof.Labels("run", "local"), func(context.Context) { res.Finish() })
	if exports.Events != "" {
		if err := cliutil.ExportFile(exports.Events, cfg.Events.WriteJSONL); err != nil {
			fmt.Fprintf(os.Stderr, "events: %v\n", err)
			os.Exit(1)
		}
		cliutil.WarnDropped(os.Stderr, cfg.Events)
	}
	if exports.Ledger != "" {
		if err := cliutil.ExportFile(exports.Ledger, cfg.Ledger.WriteJSONL); err != nil {
			fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
			os.Exit(1)
		}
	}
	if exports.Traces != "" {
		err := cliutil.ExportFile(exports.Traces, func(w io.Writer) error {
			return trace.WriteZipkin(w, res.Collector.Traces(),
				trace.ZipkinOptions{SampleEvery: exports.Stride()})
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "traces: %v\n", err)
			os.Exit(1)
		}
	}
	if telFlags.Timeseries != "" {
		if err := cliutil.ExportFile(telFlags.Timeseries, tel.WriteCSV); err != nil {
			fmt.Fprintf(os.Stderr, "timeseries: %v\n", err)
			os.Exit(1)
		}
	}

	cliutil.RunReport(os.Stdout, res, tel, telFlags.SLOTarget)

	if err := profFlags.Finish(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "fridge: %v\n", err)
		os.Exit(1)
	}

	if res.Executor.Completed() == 0 {
		fmt.Fprintln(os.Stderr, "warning: no requests completed")
		os.Exit(1)
	}

	if served != "" {
		fmt.Fprintf(os.Stderr,
			"telemetry: run complete; serving the final snapshot on http://%s (interrupt to exit)\n", served)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}

// flagSet reports whether a flag was set explicitly on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runSweep executes one cell per budget fraction and prints a comparison
// table. Warm start simulates the shared warmup once, snapshots at the
// budget-independence barrier, and replays each cell as restore → retarget
// → finish; cold runs each cell from scratch. Both produce identical rows.
func runSweep(cfg engine.Config, fracs []float64, warm bool) error {
	regions := cfg.Spec.RegionNames()
	cols := []string{"budget", "cap"}
	for _, r := range regions {
		cols = append(cols, "p95 "+r)
	}
	cols = append(cols, "violations", "migrations")
	tb := metrics.NewTable(fmt.Sprintf("Budget sweep (%s, %d workers)", cfg.Scheme, cfg.Workers), cols...)

	row := func(res *engine.Result, frac float64) []any {
		vals := []any{fmt.Sprintf("%.0f%%", frac*100), fmt.Sprintf("%.1fW", float64(res.Budget.Cap()))}
		for _, r := range regions {
			vals = append(vals, res.Summary(r).P95)
		}
		over, total := res.BudgetViolations()
		return append(vals, fmt.Sprintf("%d/%d", over, total), res.Orch.Migrations())
	}

	var rows [][]any
	if warm {
		// The donor engine serves every cell, so the phase profile carries
		// a single label: per-cell attribution needs a cold sweep.
		cfg.ProfLabel = "sweep-warm"
		donor, err := engine.BuildE(cfg)
		if err != nil {
			return err
		}
		rows = engine.ForkEach(donor, fracs, (*engine.Result).SetBudgetFraction, row)
	} else {
		for _, frac := range fracs {
			c := cfg
			c.BudgetFraction = frac
			c.ProfLabel = fmt.Sprintf("sweep[%.0f%%]", frac*100)
			res, err := engine.BuildE(c)
			if err != nil {
				return err
			}
			pprof.Do(context.Background(), pprof.Labels("cell", c.ProfLabel), func(context.Context) { res.Finish() })
			rows = append(rows, row(res, frac))
		}
	}
	for _, vals := range rows {
		tb.Rowf(vals...)
	}
	fmt.Println(tb)
	return nil
}
