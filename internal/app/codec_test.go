package app

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSpecRoundTrip(t *testing.T) {
	for _, build := range []func() *Spec{TwoRegionStudy, TrainTicket} {
		orig := build()
		data, err := orig.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if got, want := back.NumServices(), orig.NumServices(); got != want {
			t.Fatalf("services %d, want %d", got, want)
		}
		if got, want := back.RegionNames(), orig.RegionNames(); len(got) != len(want) {
			t.Fatalf("regions %v, want %v", got, want)
		}
		for i, rn := range orig.RegionNames() {
			if back.RegionNames()[i] != rn {
				t.Fatalf("region order changed: %v", back.RegionNames())
			}
			ro, rb := orig.Region(rn), back.Region(rn)
			if ro.APIExec != rb.APIExec || ro.API != rb.API {
				t.Fatalf("region %s header changed", rn)
			}
			for _, svc := range ro.ServiceNames() {
				co, _ := ro.CallTo(svc)
				cb, ok := rb.CallTo(svc)
				if !ok || co.Times != cb.Times {
					t.Fatalf("region %s call %s changed: %+v vs %+v", rn, svc, co, cb)
				}
				if diff := co.Exec - cb.Exec; diff < -time.Microsecond || diff > time.Microsecond {
					t.Fatalf("region %s call %s exec drifted: %v vs %v", rn, svc, co.Exec, cb.Exec)
				}
			}
		}
		for _, name := range orig.ServiceNames() {
			mo, mb := orig.Service(name), back.Service(name)
			if mb == nil || mo.Kind != mb.Kind || mo.CPUShare != mb.CPUShare || mo.DB != mb.DB {
				t.Fatalf("service %s changed: %+v vs %+v", name, mo, mb)
			}
		}
	}
}

func TestSpecWriteToAndReadSpec(t *testing.T) {
	var buf bytes.Buffer
	if _, err := TwoRegionStudy().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ticketinfo"`) {
		t.Fatal("JSON missing service names")
	}
	back, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumServices() != 10 {
		t.Fatalf("round-trip services = %d", back.NumServices())
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error, when set
	}{
		{"bad json", `{`, ""},
		{"empty", `{}`, ""},
		{"unknown kind", `{"services":[{"name":"x","kind":"weird"}]}`, ""},
		{"bad cpushare", `{"services":[{"name":"x","kind":"function","cpuShare":2}]}`, ""},
		{"unknown api", `{"services":[{"name":"f","kind":"function"}],
			"regions":[{"name":"r","api":"ghost","apiExecMs":1,"stages":[]}]}`, ""},
		{"unknown callee", `{"services":[{"name":"a","kind":"api"}],
			"regions":[{"name":"r","api":"a","apiExecMs":1,
			"stages":[[{"service":"ghost","times":1,"execMs":1}]]}]}`, ""},
		{"duplicate service", `{"services":[{"name":"a","kind":"api"},{"name":"a","kind":"api"}]}`, ""},
		{"negative jitter", `{"services":[{"name":"f","kind":"function","jitter":-0.1}]}`, "negative jitter"},
		{"negative apiExecMs", `{"services":[{"name":"a","kind":"api"}],
			"regions":[{"name":"r","api":"a","apiExecMs":-5,"stages":[]}]}`, "negative API exec"},
		{"negative apiExecMs with jitter", `{"services":[{"name":"a","kind":"api","jitter":0.1}],
			"regions":[{"name":"r","api":"a","apiExecMs":-5,"stages":[]}]}`, "negative API exec"},
		{"apiExecMs overflows", `{"services":[{"name":"a","kind":"api"}],
			"regions":[{"name":"r","api":"a","apiExecMs":1e13,"stages":[]}]}`, "apiExecMs 1e+13 overflows"},
		{"execMs overflows", `{"services":[{"name":"a","kind":"api"},{"name":"f","kind":"function"}],
			"regions":[{"name":"r","api":"a","apiExecMs":1,
			"stages":[[{"service":"f","times":1,"execMs":9223372036854.775807}]]}]}`, "call to f execMs"},
	}
	for _, c := range cases {
		_, err := ParseSpec([]byte(c.in))
		if err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestParseSpecMinimalValid(t *testing.T) {
	in := `{
	  "services": [
	    {"name": "gate", "kind": "api", "cpuShare": 0.5},
	    {"name": "work", "kind": "function", "cpuShare": 0.8, "jitter": 0.1}
	  ],
	  "regions": [
	    {"name": "r1", "api": "gate", "apiExecMs": 2.5,
	     "stages": [[{"service": "work", "times": 3, "execMs": 7.5, "concurrency": 2}]]}
	  ]
	}`
	s, err := ParseSpec([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	r := s.Region("r1")
	if r == nil {
		t.Fatal("region missing")
	}
	if r.APIExec != 2500*time.Microsecond {
		t.Fatalf("apiExec = %v", r.APIExec)
	}
	c, ok := r.CallTo("work")
	if !ok || c.Times != 3 || c.Exec != 7500*time.Microsecond || c.Concurrency != 2 {
		t.Fatalf("call = %+v", c)
	}
	if s.Service("work").Beta(1.2) <= 1 {
		t.Fatal("beta curve not derived from cpuShare")
	}
}
