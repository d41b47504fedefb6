package main

// control-plane: internal/server in process on a loopback listener,
// driven by a closed loop of clients, one connection each. Every cycle
// creates a session, polls it to completion, fetches /result and
// /ledger, asks one early and one late /whatif, and deletes the session.
// It is the only workload that exercises the HTTP layer, telemetry, the
// event recorder, the run ledger and workload.Driver, and it puts fresh
// runs and what-if replays side by side.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/experiments"
	"servicefridge/internal/obs"
	"servicefridge/internal/prof"
	"servicefridge/internal/server"
)

const smokeDir = "testdata/service_smoke"

// goldenEvery makes every goldenEvery-th pair of cycles post the
// committed scenarios unchanged and ask the golden what-ifs, whose
// responses must match the committed goldens byte for byte.
const goldenEvery = 5

// minCycles keeps at least ten samples beyond every reported p90.
const minCycles = 100

// pollPause is the wait between two status polls of one session.
const pollPause = 500 * time.Microsecond

// scenarioInput is one committed scenario and its goldens.
type scenarioInput struct {
	name         string
	committed    []byte // the file as committed (golden cycles)
	seeded       []byte // the same scenario at the workload seed
	goldenSeed   uint64 // the scenario seed the goldens were made with
	seed         uint64 // the seeded scenario's normalized seed
	horizon      float64
	goldenWhatif []byte // the committed what-if request
	goldenResult []byte
	goldenAnswer []byte
}

func loadScenarioInput(name, whatif, result, answer string, seed uint64) (scenarioInput, error) {
	in := scenarioInput{name: name}
	var err error
	read := func(file string) []byte {
		b, e := os.ReadFile(filepath.Join(smokeDir, file))
		err = errors.Join(err, e)
		return b
	}
	in.committed = read(name)
	in.goldenWhatif = read(whatif)
	in.goldenResult = read(result)
	in.goldenAnswer = read(answer)
	if err != nil {
		return in, err
	}
	var fields map[string]any
	if err := json.Unmarshal(in.committed, &fields); err != nil {
		return in, fmt.Errorf("%s: %w", name, err)
	}
	fields["seed"] = seed
	if in.seeded, err = json.Marshal(fields); err != nil {
		return in, err
	}
	golden, err := experiments.LoadScenario(bytes.NewReader(in.committed))
	if err != nil {
		return in, fmt.Errorf("%s: %w", name, err)
	}
	seeded, err := experiments.LoadScenario(bytes.NewReader(in.seeded))
	if err != nil {
		return in, fmt.Errorf("%s: %w", name, err)
	}
	in.goldenSeed, in.seed = golden.Seed, seeded.Seed
	in.horizon = (seeded.Warmup() + seeded.Duration()).Seconds()
	return in, nil
}

// matchesGolden reports whether a response body is the golden file:
// scripts/service_smoke.sh stores each body followed by one newline.
func matchesGolden(body, golden []byte) bool {
	return len(golden) == len(body)+1 && golden[len(body)] == '\n' && bytes.Equal(golden[:len(body)], body)
}

// cpKey names one response body of one scenario at one seed.
type cpKey struct {
	scenario string
	seed     uint64
	kind     string
}

// cycleStats is what the clients measured; guarded by controlPlane.mu.
type cycleStats struct {
	cycles        []float64 // host seconds per cycle
	sessions      []float64 // POST to done observed, seconds
	early, late   []float64 // what-if round trips, seconds
	create        []float64
	queueWait     []float64
	run           []float64
	result        []float64
	ledger        []float64
	polls         int
	httpErrors    int
	profileSecond map[string]float64 // phase seconds summed over /profile bodies
}

type controlPlane struct {
	seed   uint64
	refs   *references
	inputs []scenarioInput

	hs    *http.Server
	serve chan struct{} // closed when Serve returns
	base  string
	next  atomic.Int64 // cycle counter: a cycle's inputs depend only on it

	mu    sync.Mutex
	seen  map[cpKey]string // first digest of each response body
	stats cycleStats
}

func newControlPlane(seed uint64, refs *references) bench {
	return &controlPlane{seed: seed, refs: refs, seen: map[cpKey]string{}}
}

// setup loads the scenarios and goldens, starts the control plane, and
// makes one warm-up cycle of each kind: what a client pays before its
// first measured session.
func (c *controlPlane) setup(t *tally) error {
	c.close()
	c.inputs = c.inputs[:0]
	for _, f := range [][4]string{
		{"scenario.json", "whatif.json", "result.golden.json", "whatif.golden.json"},
		{"scenario_trace.json", "whatif_swap.json", "result_trace.golden.json", "whatif_swap.golden.json"},
	} {
		in, err := loadScenarioInput(f[0], f[1], f[2], f[3], c.seed)
		if err != nil {
			return err
		}
		c.inputs = append(c.inputs, in)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	server.New(server.Options{MaxConcurrent: workers()}).Register(mux)
	c.hs = &http.Server{Handler: mux}
	c.serve = make(chan struct{})
	c.base = "http://" + ln.Addr().String()
	go func() {
		defer close(c.serve)
		c.hs.Serve(ln)
	}()
	cl, tp := newClient()
	defer tp.CloseIdleConnections()
	var st cycleStats
	for k := int64(0); k < int64(2*len(c.inputs)); k++ {
		// Cycles 0 and 1 are golden; 2 and 3 use the workload seed.
		c.cycle(cl, k, t, nil, &st)
	}
	return nil
}

func newClient() (*http.Client, *http.Transport) {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &http.Client{Transport: tp, Timeout: time.Minute}, tp
}

// check compares a response body with its reference digest, when the
// seed has one, and with the first body seen for the same key.
func (c *controlPlane) check(key cpKey, body []byte) error {
	d := digest(body)
	var err error
	if want := c.refs.ControlPlane[seedKey(key.seed)][key.scenario][key.kind]; want != "" && want != d {
		err = fmt.Errorf("control-plane: %s %s at seed %d differs from its reference digest", key.scenario, key.kind, key.seed)
	}
	c.mu.Lock()
	prev, ok := c.seen[key]
	if !ok {
		c.seen[key] = d
	}
	c.mu.Unlock()
	if ok && prev != d {
		err = errors.Join(err, fmt.Errorf("control-plane: %s %s at seed %d differs from the first identical request's", key.scenario, key.kind, key.seed))
	}
	return err
}

// call makes one HTTP request, recording a span, and returns the body,
// the round-trip seconds, and an error for a transport failure or a
// non-2xx status, which it counts in st.httpErrors.
func (c *controlPlane) call(cl *http.Client, tr *tracer, st *cycleStats, group string, parent int, method, path string, body []byte) ([]byte, float64, error) {
	id := tr.begin("http."+method+" "+spanPath(path), group, parent)
	t0 := time.Now()
	var out []byte
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	var resp *http.Response
	if err == nil {
		resp, err = cl.Do(req)
	}
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
			err = fmt.Errorf("control-plane: %s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
		}
	}
	dur := since(t0)
	tr.end(id, nil)
	if err != nil {
		st.httpErrors++
	}
	return out, dur, err
}

// spanPath replaces the session id in a path, so spans of one endpoint
// share a name.
func spanPath(path string) string {
	const prefix = "/sessions/"
	if len(path) <= len(prefix) {
		return path
	}
	rest := path[len(prefix):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			return prefix + "{id}" + rest[i:]
		}
	}
	return prefix + "{id}"
}

// cycle runs cycle k on one client and folds its timings into st.
func (c *controlPlane) cycle(cl *http.Client, k int64, t *tally, tr *tracer, st *cycleStats) {
	in := &c.inputs[k%int64(len(c.inputs))]
	golden := (k/int64(len(c.inputs)))%goldenEvery == 0
	scenario, seed := in.seeded, in.seed
	if golden {
		scenario, seed = in.committed, in.goldenSeed
	}
	group := "cycle" + strconv.FormatInt(k, 10)
	cyc := tr.begin("control-plane.cycle", group, 0)
	t0 := time.Now()
	defer func() { tr.end(cyc, profCounters(tr)) }()

	body, create, err := c.call(cl, tr, st, group, cyc, http.MethodPost, "/sessions", scenario)
	var created struct {
		ID string `json:"id"`
	}
	if err == nil {
		err = json.Unmarshal(body, &created)
	}
	t.op(err)
	if err != nil {
		return
	}
	st.create = append(st.create, create)
	path := "/sessions/" + created.ID
	complete := false
	defer func() {
		_, _, err := c.call(cl, tr, st, group, cyc, http.MethodDelete, path, nil)
		t.op(err)
		if complete && err == nil {
			st.cycles = append(st.cycles, since(t0))
		}
	}()

	// Poll until done. The session starts running between the last
	// queued poll and the first that is not.
	created0 := time.Now()
	var runStart, done time.Time
	for deadline := time.Now().Add(time.Minute); ; {
		body, _, err := c.call(cl, tr, st, group, cyc, http.MethodGet, path+"/status", nil)
		st.polls++
		var status struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err == nil {
			err = json.Unmarshal(body, &status)
		}
		if err == nil && status.State != "queued" && runStart.IsZero() {
			runStart = time.Now()
		}
		if err == nil && (status.State == "failed" || status.State == "cancelled") {
			err = fmt.Errorf("control-plane: session %s %s: %s", created.ID, status.State, status.Error)
		}
		if err == nil && time.Now().After(deadline) {
			err = fmt.Errorf("control-plane: session %s not done after a minute", created.ID)
		}
		t.op(err)
		if err != nil {
			return
		}
		if status.State == "done" {
			done = time.Now()
			break
		}
		time.Sleep(pollPause)
	}
	st.sessions = append(st.sessions, done.Sub(t0).Seconds())
	st.queueWait = append(st.queueWait, runStart.Sub(created0).Seconds())
	st.run = append(st.run, done.Sub(runStart).Seconds())

	body, d, err := c.call(cl, tr, st, group, cyc, http.MethodGet, path+"/result", nil)
	if err == nil {
		st.result = append(st.result, d)
		err = c.check(cpKey{in.name, seed, "result"}, body)
		if golden && !matchesGolden(body, in.goldenResult) {
			err = errors.Join(err, fmt.Errorf("control-plane: %s /result differs from its golden", in.name))
		}
	}
	t.op(err)

	body, d, err = c.call(cl, tr, st, group, cyc, http.MethodGet, path+"/ledger", nil)
	if err == nil {
		st.ledger = append(st.ledger, d)
		err = c.check(cpKey{in.name, seed, "ledger"}, body)
	}
	t.op(err)

	for _, q := range []struct {
		kind string
		at   float64
		out  *[]float64
	}{
		{"whatif_early", 0.05 * in.horizon, &st.early},
		{"whatif_late", 0.95 * in.horizon, &st.late},
	} {
		req := []byte(fmt.Sprintf(`{"at_s": %g, "budget": 0.75}`, q.at))
		body, d, err := c.call(cl, tr, st, group, cyc, http.MethodPost, path+"/whatif", req)
		if err == nil {
			*q.out = append(*q.out, d)
			err = c.check(cpKey{in.name, seed, q.kind}, body)
		}
		t.op(err)
	}

	if golden {
		body, _, err := c.call(cl, tr, st, group, cyc, http.MethodPost, path+"/whatif", in.goldenWhatif)
		if err == nil && !matchesGolden(body, in.goldenAnswer) {
			err = fmt.Errorf("control-plane: %s golden /whatif differs from its golden", in.name)
		}
		t.op(err)
	}

	if tr != nil {
		body, _, err := c.call(cl, tr, st, group, cyc, http.MethodGet, path+"/profile", nil)
		var doc struct {
			Phases []struct {
				Phase   string  `json:"phase"`
				Seconds float64 `json:"seconds"`
			} `json:"phases"`
		}
		if err == nil {
			err = json.Unmarshal(body, &doc)
		}
		t.op(err)
		for _, p := range doc.Phases {
			st.profileSecond[p.Phase] += p.Seconds
		}
	}
	complete = true
}

func (c *controlPlane) measure(seconds float64, t *tally, tr *tracer) *outcome {
	if tr != nil {
		prof.Reset()
	}
	var all cycleStats
	all.profileSecond = map[string]float64{}
	start, cpu0 := time.Now(), cpuSeconds()
	var wg sync.WaitGroup
	for i := 0; i < workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, tp := newClient()
			defer tp.CloseIdleConnections()
			st := cycleStats{profileSecond: map[string]float64{}}
			for n := 1; ; n++ {
				c.cycle(cl, c.next.Add(1)-1, t, tr, &st)
				if since(start) >= seconds && n >= minCycles/workers() {
					break
				}
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			all.cycles = append(all.cycles, st.cycles...)
			all.sessions = append(all.sessions, st.sessions...)
			all.early = append(all.early, st.early...)
			all.late = append(all.late, st.late...)
			all.create = append(all.create, st.create...)
			all.queueWait = append(all.queueWait, st.queueWait...)
			all.run = append(all.run, st.run...)
			all.result = append(all.result, st.result...)
			all.ledger = append(all.ledger, st.ledger...)
			all.polls += st.polls
			all.httpErrors += st.httpErrors
			for p, s := range st.profileSecond {
				all.profileSecond[p] += s
			}
		}()
	}
	wg.Wait()
	elapsed := since(start)
	cpu := cpuSeconds() - cpu0
	c.stats = all

	o := &outcome{passes: all.cycles, cpu: ratio(cpu, float64(len(all.cycles))), report: metricSet{}}
	o.report.set("session_p50_ms", 1e3*quantile(all.sessions, 0.5), "ms")
	o.report.set("session_p90_ms", 1e3*quantile(all.sessions, 0.9), "ms")
	o.report.set("sessions_per_s", float64(len(all.sessions))/elapsed, "1/s")
	o.report.set("whatif_early_p50_ms", 1e3*quantile(all.early, 0.5), "ms")
	o.report.set("whatif_early_p90_ms", 1e3*quantile(all.early, 0.9), "ms")
	o.report.set("whatif_late_p50_ms", 1e3*quantile(all.late, 0.5), "ms")
	o.report.set("whatif_late_p90_ms", 1e3*quantile(all.late, 0.9), "ms")
	o.report.set("samples", float64(len(all.sessions)), "count")
	return o
}

// layers adds the per-layer metrics. The server metrics come from the
// traced clients; telemetry and obs seconds from the sessions' /profile
// bodies; the engine counters and probe shapes from shape runs of the
// two seeded scenarios with the attachments every session carries.
func (c *controlPlane) layers(t *tally, tr *tracer, out metricSet) {
	profLayers(out)
	st := c.stats
	out.set("telemetry.sample_s", st.profileSecond["telemetry"], "s")
	out.set("obs.encode_s", st.profileSecond["encode"], "s")
	out.set("obs.seal_s", st.profileSecond["seal"], "s")
	out.set("server.create_ms", 1e3*mean(st.create), "ms")
	out.set("server.queue_wait_ms", 1e3*mean(st.queueWait), "ms")
	out.set("server.run_ms", 1e3*mean(st.run), "ms")
	out.set("server.result_ms", 1e3*mean(st.result), "ms")
	out.set("server.ledger_ms", 1e3*mean(st.ledger), "ms")
	out.set("server.polls_per_session", ratio(float64(st.polls), float64(len(st.sessions))), "count")
	out.set("server.http_errors", float64(st.httpErrors), "count")
	notExercised(out, experimentLayers)

	var rs runStats
	for i := 0; i < 5; i++ {
		for _, in := range c.inputs {
			group := "shape-" + in.name + strconv.Itoa(i)
			sc, err := experiments.LoadScenario(bytes.NewReader(in.seeded))
			var cfg engine.Config
			if err == nil {
				cfg, err = sc.Config()
			}
			var res *engine.Result
			if err == nil {
				cfg.Telemetry = sc.NewTelemetry()
				cfg.Events = obs.NewRecorder(0)
				cfg.Ledger = obs.NewLedger()
				cfg.Prof = prof.NewDetached(group)
				b := tr.begin("engine.BuildE", group, 0)
				res, err = engine.BuildE(cfg)
				tr.end(b, nil)
			}
			t.op(err)
			if err != nil {
				return
			}
			s := tr.begin("engine.Snapshot", group, 0)
			res.Snapshot()
			tr.end(s, nil)
			drive(res, group, 0, tr, &rs)
			rs.foldProfile(res.Config.Prof)
		}
	}
	engineLayers(&rs, c.seed, out)
}

// close stops the control plane and waits for it to exit. Every cycle
// deletes its session, so no session goroutine outlives it.
func (c *controlPlane) close() {
	if c.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.hs.Shutdown(ctx); err != nil {
		c.hs.Close()
	}
	<-c.serve
	c.hs = nil
}
