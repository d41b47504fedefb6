package app

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// This file is the JSON codec for application specs, so downstream users
// can profile their own microservice application (the offline-analysis
// stage of Figure 9) and feed it to the MCF calculator and ServiceFridge
// without writing Go. Times are expressed in fractional milliseconds, the
// unit the paper uses throughout.

// specJSON is the serialized form of a Spec.
type specJSON struct {
	Services []serviceJSON `json:"services"`
	Regions  []regionJSON  `json:"regions"`
}

type serviceJSON struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	CPUShare float64 `json:"cpuShare"`
	Jitter   float64 `json:"jitter,omitempty"`
	DB       string  `json:"db,omitempty"`
}

type regionJSON struct {
	Name      string       `json:"name"`
	API       string       `json:"api"`
	APIExecMs float64      `json:"apiExecMs"`
	Stages    [][]callJSON `json:"stages"`
}

type callJSON struct {
	Service     string  `json:"service"`
	Times       int     `json:"times"`
	ExecMs      float64 `json:"execMs"`
	Concurrency int     `json:"concurrency,omitempty"`
}

func kindToString(k Kind) string {
	switch k {
	case KindAPI:
		return "api"
	case KindFunction:
		return "function"
	case KindDatabase:
		return "database"
	case KindInfra:
		return "infra"
	}
	return ""
}

func kindFromString(s string) (Kind, error) {
	switch s {
	case "api":
		return KindAPI, nil
	case "function":
		return KindFunction, nil
	case "database":
		return KindDatabase, nil
	case "infra":
		return KindInfra, nil
	default:
		return 0, fmt.Errorf("app: unknown service kind %q", s)
	}
}

// MarshalJSON encodes the spec; services and regions keep registration
// order so round-trips are stable.
func (s *Spec) MarshalJSON() ([]byte, error) {
	out := specJSON{}
	for _, name := range s.serviceOrder {
		ms := s.services[name]
		out.Services = append(out.Services, serviceJSON{
			Name:     ms.Name,
			Kind:     kindToString(ms.Kind),
			CPUShare: ms.CPUShare,
			Jitter:   ms.Jitter,
			DB:       ms.DB,
		})
	}
	for _, rn := range s.regionOrder {
		r := s.regions[rn]
		rj := regionJSON{
			Name:      r.Name,
			API:       r.API,
			APIExecMs: float64(r.APIExec) / float64(time.Millisecond),
		}
		for _, st := range r.Stages {
			var stage []callJSON
			for _, c := range st {
				stage = append(stage, callJSON{
					Service:     c.Service,
					Times:       c.Times,
					ExecMs:      float64(c.Exec) / float64(time.Millisecond),
					Concurrency: c.Concurrency,
				})
			}
			rj.Stages = append(rj.Stages, stage)
		}
		out.Regions = append(out.Regions, rj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// WriteTo serializes the spec as JSON.
func (s *Spec) WriteTo(w io.Writer) (int64, error) {
	b, err := s.MarshalJSON()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ParseSpec decodes a JSON application spec, applying the same validation
// as the programmatic builders. Validation failures return errors (the
// input is external data, unlike the in-code profiles, which panic).
func ParseSpec(data []byte) (spec *Spec, err error) {
	var in specJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("app: parsing spec: %w", err)
	}
	if len(in.Services) == 0 {
		return nil, fmt.Errorf("app: spec has no services")
	}
	// The builders panic on invalid data; convert to errors here.
	defer func() {
		if r := recover(); r != nil {
			spec = nil
			err = fmt.Errorf("app: invalid spec: %v", r)
		}
	}()
	s := NewSpec()
	for _, sj := range in.Services {
		kind, kerr := kindFromString(sj.Kind)
		if kerr != nil {
			return nil, kerr
		}
		s.AddService(Microservice{
			Name:     sj.Name,
			Kind:     kind,
			CPUShare: sj.CPUShare,
			Jitter:   sj.Jitter,
			DB:       sj.DB,
		})
	}
	for _, rj := range in.Regions {
		r := Region{
			Name:    rj.Name,
			API:     rj.API,
			APIExec: msDuration("region "+rj.Name+" apiExecMs", rj.APIExecMs),
		}
		for _, stage := range rj.Stages {
			var st Stage
			for _, c := range stage {
				st = append(st, Call{
					Service:     c.Service,
					Times:       c.Times,
					Exec:        msDuration("region "+rj.Name+" call to "+c.Service+" execMs", c.ExecMs),
					Concurrency: c.Concurrency,
				})
			}
			r.Stages = append(r.Stages, st)
		}
		s.AddRegion(r)
	}
	return s, nil
}

// msDuration converts fractional milliseconds to a Duration, panicking
// (an error, under ParseSpec's recover) when the nanoseconds overflow
// int64: converted anyway, they would wrap to a negative Duration.
func msDuration(field string, ms float64) time.Duration {
	if ms*float64(time.Millisecond) >= math.MaxInt64 {
		panic(fmt.Sprintf("%s %v overflows the longest time.Duration (%v)", field, ms, time.Duration(math.MaxInt64)))
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// ReadSpec decodes a JSON application spec from r.
func ReadSpec(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("app: reading spec: %w", err)
	}
	return ParseSpec(data)
}
