package app_test

import (
	"bytes"
	"testing"

	"servicefridge/internal/app"
)

// FuzzParseSpec: any input parses to an error or to a spec whose JSON
// parses back to a spec with the same JSON — never a panic.
func FuzzParseSpec(f *testing.F) {
	for _, name := range app.BuiltinNames() {
		fam, _ := app.Builtin(name)
		data, err := fam.New().MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"services":[{"name":"gate","kind":"api","cpuShare":0.5},` +
		`{"name":"work","kind":"function","cpuShare":0.8,"jitter":0.1}],` +
		`"regions":[{"name":"r1","api":"gate","apiExecMs":2.5,` +
		`"stages":[[{"service":"work","times":3,"execMs":7.5,"concurrency":2}]]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := app.ParseSpec(data)
		if err != nil {
			return
		}
		once, err := spec.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal an accepted spec: %v", err)
		}
		back, err := app.ParseSpec(once)
		if err != nil {
			t.Fatalf("the JSON of an accepted spec does not parse: %v\n%s", err, once)
		}
		twice, err := back.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal the re-parsed spec: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("spec JSON changed across a round trip:\n%s\nvs\n%s", once, twice)
		}
	})
}
