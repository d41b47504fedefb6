package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/experiments"
	"servicefridge/internal/sim"
)

// gridScenario drives both a closed loop and a traffic profile, so every
// perturbation of the grid applies to it.
const gridScenario = `{"scheme":"ServiceFridge","budget":0.8,"workers":10,"warmup_s":1,"duration_s":9,"seed":3,` +
	`"workload":{"profile":"diurnal","rate":25}}`

// sessionFunc runs f on the session goroutine, between chunks or after
// the run: the test's window onto goroutine-owned engine state.
type sessionFunc struct {
	f    func(*session)
	done chan bool // true once f ran, false when the session had no engine
}

func (c sessionFunc) exec(s *session)  { c.f(s); c.done <- true }
func (c sessionFunc) fail(int, string) { c.done <- false }

func onSession(sess *session, f func(*session)) bool {
	c := sessionFunc{f: f, done: make(chan bool, 1)}
	sess.cmds <- c
	return <-c.done
}

// park reports s's clock on parked, then serves s's commands on the
// session goroutine, as the advance loop's drain does, until release is
// closed.
func park(s *session, parked chan<- sim.Time, release <-chan struct{}) {
	parked <- sim.Time(s.simNow.Load())
	for {
		select {
		case cmd := <-s.cmds:
			cmd.exec(s)
		case <-release:
			return
		}
	}
}

// createHeld creates a session from scenario and parks it at the first
// chunk boundary its advance loop drains commands at, until release is
// closed. It returns the session and the sim time it parked at. The
// session is created while the test takes every concurrency slot, and the
// test's goroutine frees them only just before it sends its look, so the
// session cannot start its run, let alone finish it, before a look is
// waiting for it.
func createHeld(t *testing.T, srv *Server, ts *httptest.Server, scenario string, release <-chan struct{}) (string, sim.Time) {
	t.Helper()
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	id := createSession(t, ts, scenario)
	sess := srv.lookup(id)
	parked := make(chan sim.Time, 1)
	finished := false
	look := func(s *session) {
		if st, _ := s.getState(); st != StateRunning {
			finished = true
			return
		}
		park(s, parked, release)
	}
	for i := 0; i < cap(srv.sem); i++ {
		<-srv.sem
	}
	for {
		c := sessionFunc{f: look, done: make(chan bool, 1)}
		sess.cmds <- c
		select {
		case at := <-parked:
			return id, at
		case <-c.done: // still queued, with no engine yet: ask again
			if finished {
				t.Fatal("session finished before it could be held mid-run")
			}
		}
	}
}

// stepHeld advances a session parked by createHeld to its next chunk
// boundary and parks it there, inside the first park, until release is
// closed. It runs one step of the advance loop on the session goroutine:
// resume the live run after the held what-ifs' detours, run one chunk,
// publish the clock. Once released, the loop finds the engine already at
// that boundary and carries on from it. A test that instead raced the
// loop to a later boundary would fail whenever the session ran its
// remaining chunks before the test's goroutine was scheduled again.
func stepHeld(t *testing.T, sess *session, release <-chan struct{}) sim.Time {
	t.Helper()
	parked := make(chan sim.Time, 1)
	onStep := func(s *session) {
		if err := s.resumeLive(); err != nil {
			t.Errorf("resume before the step: %v", err)
		}
		next := min(sim.Time(s.simNow.Load())+advanceChunk, s.res.Total())
		s.res.Engine.RunUntil(next)
		s.simNow.Store(int64(next))
		park(s, parked, release)
	}
	sess.cmds <- sessionFunc{f: onStep, done: make(chan bool, 1)}
	return <-parked
}

// oracleWhatIf answers q on o with the four-stretch protocol the control
// plane used before it memoized the baseline and resumed lazily: replay
// 0→at and snapshot there, run the baseline branch to the end, restore
// the fork snapshot, run the perturbed branch to the end, and replay
// 0→paused. It returns the response body and the baseline branch.
func oracleWhatIf(t *testing.T, o *session, q WhatIfRequest) ([]byte, branchDoc) {
	t.Helper()
	res := o.res
	paused := res.Engine.Now()
	at, swap, err := o.prepare(q)
	if err != nil {
		t.Fatalf("oracle %+v: %v", q, err)
	}
	if err := res.ReplayTo(o.base, at); err != nil {
		t.Fatalf("oracle fork: %v", err)
	}
	snap := res.Snapshot()
	res.Finish()
	baseline := branchStats(res, o.tel)
	res.Restore(snap)
	if err := perturb(res, q, swap); err != nil {
		t.Fatalf("oracle perturb: %v", err)
	}
	res.Finish()
	rep := whatIfReply(o.scenario, q, baseline, branchStats(res, o.tel))
	if err := res.ReplayTo(o.base, paused); err != nil {
		t.Fatalf("oracle resume: %v", err)
	}
	return rep.body, baseline
}

type gridPoint struct {
	q        WhatIfRequest
	body     []byte
	baseline branchDoc
}

// oracleGrid answers every (at_s, perturbation) pair of the grid with the
// four-stretch protocol on a finished engine of the scenario.
func oracleGrid(t *testing.T, scenario string) []gridPoint {
	t.Helper()
	sc, err := experiments.LoadScenario(strings.NewReader(scenario))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatal(err)
	}
	o := newSession("oracle", 0, sc, cfg, nil)
	t.Cleanup(o.markGone)
	if err := o.start(); err != nil {
		t.Fatal(err)
	}
	o.res.Finish()
	T := time.Duration(o.res.Total()).Seconds()
	var grid []gridPoint
	for _, at := range []float64{0, 0.05 * T, T / 2, 0.95 * T, T} {
		for _, q := range []WhatIfRequest{
			{AtS: at, Budget: 0.75},
			{AtS: at, MaxFreqGHz: 1.6},
			{AtS: at, LoadFactor: 1.5},
			{AtS: at, Profile: "flash-crowd"},
		} {
			body, baseline := oracleWhatIf(t, o, q)
			grid = append(grid, gridPoint{q: q, body: body, baseline: baseline})
		}
	}
	return grid
}

// liveReads are the bodies of a session's live-state reads; a what-if
// detour must leave every one of them unchanged.
type liveReads struct {
	result, ledger, explain, status string
}

func readLive(t *testing.T, ts *httptest.Server, id string) liveReads {
	t.Helper()
	get := func(path string) string {
		code, body := doReq(t, "GET", ts.URL+"/sessions/"+id+path, "")
		return fmt.Sprintf("%d %s", code, body)
	}
	return liveReads{
		result:  get("/result"),
		ledger:  get("/ledger"),
		explain: get("/explain?t=0"),
		status:  get("/status"),
	}
}

// askGrid posts grid points to the session, checks each body against the
// oracle's, and after every other query checks that the live reads are
// still want — so back-to-back what-ifs and what-ifs followed by reads
// are both exercised.
func askGrid(t *testing.T, ts *httptest.Server, id string, grid []gridPoint, want liveReads) {
	t.Helper()
	for i, g := range grid {
		q, _ := json.Marshal(g.q)
		code, body := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", string(q))
		if code != http.StatusOK {
			t.Fatalf("whatif %s: %d: %s", q, code, body)
		}
		if !bytes.Equal(body, g.body) {
			t.Fatalf("whatif %s differs from the four-stretch oracle:\n got %s\nwant %s", q, body, g.body)
		}
		if i%2 == 1 {
			if got := readLive(t, ts, id); got != want {
				t.Fatalf("live reads changed after whatif %s:\n got %+v\nwant %+v", q, got, want)
			}
		}
	}
}

// TestWhatIfMatchesFourStretchOracle pins the memoized-baseline,
// lazy-resume protocol to the protocol it replaced: over a grid of fork
// times and perturbations, against done, cancelled and running sessions,
// every /whatif body equals the oracle's, and no detour changes a
// /result, /ledger, /explain or /status body or rewinds the stream.
func TestWhatIfMatchesFourStretchOracle(t *testing.T) {
	grid := oracleGrid(t, gridScenario)
	srv := New(Options{})
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	// Done: the baseline is memoized at the session's own Finish, and
	// equals the recomputed baseline at every fork point.
	done := createSession(t, ts, gridScenario)
	waitState(t, ts, done, StateDone)
	final := readLive(t, ts, done)
	var memo branchDoc
	onSession(srv.lookup(done), func(s *session) { memo = *s.baseline })
	for _, g := range grid {
		if memo != g.baseline {
			t.Fatalf("memoized baseline %+v differs from the recomputed one %+v at at_s=%v",
				memo, g.baseline, g.q.AtS)
		}
	}
	askGrid(t, ts, done, grid, final)

	// Cancelled mid-run without a detour: its first what-if finishes the
	// live run as the baseline.
	release := make(chan struct{})
	cancelled, _ := createHeld(t, srv, ts, gridScenario, release)
	doReq(t, "POST", ts.URL+"/sessions/"+cancelled+"/cancel", "")
	close(release)
	waitState(t, ts, cancelled, StateCancelled)
	askGrid(t, ts, cancelled, grid, readLive(t, ts, cancelled))

	// Running: held at two chunk boundaries, half the grid at each, and
	// stepped from the first to the second. Each hold ends on an early
	// fork with a clamp, a detour that rewrites the whole run, and the run
	// then advances past it to the same end as the done session; its
	// stream never repeats or rewinds a sample.
	release = make(chan struct{})
	running, parked := createHeld(t, srv, ts, gridScenario, release)
	stream := make(chan []float64, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/sessions/" + running + "/stream")
		if err != nil {
			t.Error(err)
			stream <- nil
			return
		}
		defer resp.Body.Close()
		var seen []float64
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			var line struct {
				SimSeconds float64 `json:"sim_seconds"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Errorf("stream line %q: %v", sc.Text(), err)
			}
			seen = append(seen, line.SimSeconds)
		}
		stream <- seen
	}()
	early := grid[1]
	if early.q.AtS != 0 || early.q.MaxFreqGHz == 0 {
		t.Fatalf("grid[1] is %+v, want the clamp at t=0", early.q)
	}
	askGrid(t, ts, running, append(slices.Clip(grid[:len(grid)/2]), early), readLive(t, ts, running))
	if next := stepHeld(t, srv.lookup(running), release); next <= parked {
		t.Fatalf("stepped from t=%v to t=%v", parked, next)
	}
	askGrid(t, ts, running, append(slices.Clip(grid[len(grid)/2:]), early), readLive(t, ts, running))
	close(release)
	waitState(t, ts, running, StateDone)
	if got := readLive(t, ts, running); got.result != final.result || got.ledger != final.ledger || got.explain != final.explain {
		t.Fatal("a session with mid-run what-ifs finished differently from one without")
	}
	samples := <-stream
	if len(samples) < 2 {
		t.Fatalf("stream carried %d samples", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i] <= samples[i-1] {
			t.Fatalf("stream sample %d at t=%v after t=%v", i, samples[i], samples[i-1])
		}
	}
}

// TestWhatIfAtSOverflow: a fork time far past the run's end, large enough
// to overflow nanoseconds, is a 422 naming at_s and the run's end, and
// leaves the session's outputs untouched.
func TestWhatIfAtSOverflow(t *testing.T) {
	ts := newTestServer(t, Options{})
	id := createSession(t, ts, shortScenario)
	waitState(t, ts, id, StateDone)
	before := readLive(t, ts, id)
	for _, at := range []string{"1e10", "4.5", "1.7976931348623157e308"} {
		code, body := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", `{"at_s":`+at+`,"budget":0.75}`)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("at_s %s: status %d: %s", at, code, body)
		}
		if !bytes.Contains(body, []byte("at_s")) || !bytes.Contains(body, []byte("run's end at 4s")) {
			t.Fatalf("at_s %s: error does not name at_s and the run's end: %s", at, body)
		}
	}
	if after := readLive(t, ts, id); after != before {
		t.Fatal("a rejected what-if changed the session's outputs")
	}
}

// TestBodyTooLarge: scenario and what-if bodies over maxBodyBytes get a
// 413, not a read of the whole body.
func TestBodyTooLarge(t *testing.T) {
	ts := newTestServer(t, Options{})
	huge := strings.Repeat("x", maxBodyBytes)
	if code, body := doReq(t, "POST", ts.URL+"/sessions", `{"scheme":"`+huge+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized scenario: status %d: %.200s", code, body)
	}
	id := createSession(t, ts, shortScenario)
	waitState(t, ts, id, StateDone)
	if code, body := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", `{"profile":"`+huge+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized what-if: status %d: %.200s", code, body)
	}
}

// FuzzParseWhatIf: any body parses to an error or to a request that
// passes validate and survives a JSON round trip unchanged — never a
// panic.
func FuzzParseWhatIf(f *testing.F) {
	seeds, _ := filepath.Glob("../../testdata/service_smoke/whatif*.json")
	if len(seeds) == 0 {
		f.Fatal("no what-if seeds")
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"at_s":1e10,"budget":0.75}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := parseWhatIf(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := q.validate(); err != nil {
			t.Fatalf("parse accepted an invalid request %+v: %v", q, err)
		}
		b, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("marshal %+v: %v", q, err)
		}
		again, err := parseWhatIf(bytes.NewReader(b))
		if err != nil || again != q {
			t.Fatalf("round trip of %s: %+v, %v", b, again, err)
		}
	})
}
