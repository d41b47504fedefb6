package obs

import (
	"bufio"
	"bytes"
	"os"
	"strings"
	"testing"

	"servicefridge/internal/sim"
)

// sealSome runs a fixed emit/seal script against a fresh recorder+ledger
// pair and returns both.
func sealSome() (*Recorder, *Ledger) {
	rec := NewRecorder(8)
	led := NewLedger()
	rec.SetLedger(led)
	rec.Emit(10, Promote{Service: "seat", Level: "high", Reason: "test",
		Cause: Cause{Signal: "warm-util", Value: 0.9, Bound: 0.75}})
	rec.Emit(20, FreqChange{Server: "serverA", Zone: "hot", GHz: 1.2})
	led.Seal(1000, 42, 43)
	rec.Emit(1500, Migration{Service: "seat", From: "a", To: "b", Zone: "cold"})
	led.Seal(2000, 44, 45)
	led.Seal(3000, 44, 45) // empty tick
	return rec, led
}

// TestLedgerDeterministicChain: the same script seals the same chain;
// any change to an event, a digest or a seal time changes it.
func TestLedgerDeterministicChain(t *testing.T) {
	_, a := sealSome()
	_, b := sealSome()
	if a.chain != b.chain || a.Len() != b.Len() {
		t.Fatalf("identical scripts sealed different ledgers: %x vs %x", a.chain, b.chain)
	}
	ea, eb := a.Entries(), b.Entries()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	// Perturb one component: the chain must move.
	rec := NewRecorder(8)
	led := NewLedger()
	rec.SetLedger(led)
	rec.Emit(10, Promote{Service: "seat", Level: "high", Reason: "test",
		Cause: Cause{Signal: "warm-util", Value: 0.9000001, Bound: 0.75}})
	rec.Emit(20, FreqChange{Server: "serverA", Zone: "hot", GHz: 1.2})
	led.Seal(1000, 42, 43)
	if led.Entries()[0].Chain == ea[0].Chain {
		t.Fatal("perturbed cause value did not change the chain")
	}
}

// TestLedgerComponentsIsolate: the per-entry component hashes tell apart
// an event-stream change, a state change and an RNG change.
func TestLedgerComponentsIsolate(t *testing.T) {
	_, base := sealSome()
	e0 := base.Entries()[0]

	led := NewLedger()
	led.Seal(1000, 42, 99) // same (no) events, same state, different rng
	if got := led.Entries()[0]; got.RNG == e0.RNG || got.State != 42 {
		t.Fatalf("rng component did not isolate: %+v vs %+v", got, e0)
	}
	led2 := NewLedger()
	led2.Seal(1000, 77, 43)
	if got := led2.Entries()[0]; got.State == e0.State || got.RNG != 43 {
		t.Fatalf("state component did not isolate: %+v", got)
	}
}

// TestLedgerEmitTimeHashing: the ledger hashes events at emit time, so
// ring wraparound (drops) cannot change the ledger.
func TestLedgerEmitTimeHashing(t *testing.T) {
	big := NewRecorder(1024)
	bigLed := NewLedger()
	big.SetLedger(bigLed)
	tiny := NewRecorder(2) // will wrap and drop
	tinyLed := NewLedger()
	tiny.SetLedger(tinyLed)
	for i := 0; i < 10; i++ {
		ev := FreqChange{Server: "s", Zone: "hot", GHz: float64(i)}
		big.Emit(sim.Time(i), ev)
		tiny.Emit(sim.Time(i), ev)
	}
	bigLed.Seal(100, 1, 2)
	tinyLed.Seal(100, 1, 2)
	if tiny.Dropped() == 0 {
		t.Fatal("tiny recorder did not wrap")
	}
	if bigLed.chain != tinyLed.chain {
		t.Fatal("ring wraparound changed the ledger chain")
	}
}

// TestLedgerJSONLRoundTrip: WriteJSONL bytes parse back to the exact
// entries, and re-encoding is byte-identical.
func TestLedgerJSONLRoundTrip(t *testing.T) {
	_, led := sealSome()
	var buf bytes.Buffer
	if err := led.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	entries, err := ReadLedger(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	want := led.Entries()
	if len(entries) != len(want) {
		t.Fatalf("parsed %d entries, want %d", len(entries), len(want))
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Fatalf("entry %d round-trip mismatch: %+v vs %+v", i, entries[i], want[i])
		}
	}
	var again bytes.Buffer
	for i, e := range entries {
		again.Write(AppendLedgerLine(nil, i, e))
		again.WriteByte('\n')
	}
	if again.String() != first {
		t.Fatal("re-encoded ledger bytes differ")
	}
}

// TestLedgerParseErrors: malformed lines are rejected with errors, not
// silently skipped.
func TestLedgerParseErrors(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"t":0,"at":1,"n":0,"events":"xyz","state":"0","rng":"0","chain":"0"}`,
		`{"t":5,"at":1,"n":0,"events":"0","state":"0","rng":"0","chain":"0"}`, // out of order
		`{"t":0,"at":1,"n":0,"bogus":"0"}`,
	} {
		if _, err := ReadLedger(strings.NewReader(bad + "\n")); err == nil {
			t.Fatalf("parse of %q succeeded, want error", bad)
		}
	}
}

// TestLedgerSnapshotRestore: a restored ledger re-seals to the same chain
// as an uninterrupted one, including a pending (unsealed) tick.
func TestLedgerSnapshotRestore(t *testing.T) {
	rec, led := sealSome()
	rec.Emit(2500, Crash{Service: "seat", Node: "serverB"}) // pending, unsealed
	snap := led.Snapshot()
	recSnap := rec.Snapshot() // event seq numbers are part of the hash

	// Diverge: extra events and seals...
	rec.Emit(2600, Restart{Service: "seat", Node: "serverB"})
	led.Seal(4000, 50, 51)
	divergedChain := led.chain

	// ...then rewind and replay the original continuation.
	led.Restore(snap)
	rec.Restore(recSnap)
	rec.Emit(2600, Restart{Service: "seat", Node: "serverB"})
	led.Seal(4000, 50, 51)
	if led.chain != divergedChain {
		t.Fatal("restored ledger did not re-seal the same chain")
	}
	if led.Len() != 4 {
		t.Fatalf("ledger has %d entries, want 4", led.Len())
	}

	// Nil-safety.
	var nilLed *Ledger
	nilLed.Seal(1, 2, 3)
	nilLed.Restore(nil)
	if nilLed.Snapshot() != nil || nilLed.Len() != 0 || nilLed.Entries() != nil {
		t.Fatal("nil ledger is not inert")
	}
	if err := nilLed.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// FuzzLedgerLine: AppendLedgerLine then ParseLedgerLine gives back the
// tick index and entry exactly, and any line parses to an error or to an
// entry that itself round-trips — never a panic. The corpus is seeded
// with the lines of testdata/ledger.jsonl, the first ticks of the
// canonical run's ledger (cmd/experiments -run table2 -seed 1 -ledger).
func FuzzLedgerLine(f *testing.F) {
	file, err := os.Open("testdata/ledger.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		t, e, err := ParseLedgerLine(sc.Text())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sc.Text(), t, int64(e.At), e.N, e.Events, e.State, e.RNG, e.Chain)
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	roundTrip := func(t *testing.T, tick int, e LedgerEntry) {
		line := string(AppendLedgerLine(nil, tick, e))
		gotT, gotE, err := ParseLedgerLine(line)
		if err != nil || gotT != tick || gotE != e {
			t.Fatalf("%s parsed to (%d, %+v, %v), want (%d, %+v)", line, gotT, gotE, err, tick, e)
		}
	}
	f.Fuzz(func(t *testing.T, line string, tick int, at int64, n, events, state, rng, chain uint64) {
		roundTrip(t, tick, LedgerEntry{At: sim.Time(at), N: n, Events: events, State: state, RNG: rng, Chain: chain})
		if tick, e, err := ParseLedgerLine(line); err == nil {
			roundTrip(t, tick, e)
		}
	})
}
