package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Trace codec: a replayable on-disk form of a Profile. Two encodings are
// accepted, sniffed from the first non-blank line:
//
//	CSV   — a "t_s,region,rate" header followed by one row per setpoint
//	JSONL — one {"t_s":..,"region":"..","rate":..} object per line
//
// Times are seconds from run start with millisecond resolution; rates are
// requests/second (or workers, for closed-loop replay). The parser is
// strict — malformed rows, unsorted timestamps, negative rates and
// duplicate (t, region) keys are all errors — and WriteTrace/ParseTrace
// round-trip bit-identical rates (shortest-form float encoding), so a
// replayed trace reproduces the generating run's schedule exactly.

// TraceHeader is the mandatory first line of the CSV encoding.
const TraceHeader = "t_s,region,rate"

type traceRow struct {
	T      float64 `json:"t_s"`
	Region string  `json:"region"`
	Rate   float64 `json:"rate"`
}

// ParseTrace reads a CSV or JSONL trace and returns it as a validated
// Profile.
func ParseTrace(r io.Reader) (*Profile, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	p := &Profile{}
	jsonl := false
	header := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if !header && !jsonl {
			// First content line decides the encoding.
			if strings.HasPrefix(text, "{") {
				jsonl = true
			} else {
				if text != TraceHeader {
					return nil, fmt.Errorf("workload: trace line %d: want the %q header or a JSONL object, got %q",
						line, TraceHeader, text)
				}
				header = true
				continue
			}
		}
		var row traceRow
		if jsonl {
			dec := json.NewDecoder(strings.NewReader(text))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&row); err != nil {
				return nil, fmt.Errorf("workload: trace line %d: %v", line, err)
			}
		} else {
			fields := strings.Split(text, ",")
			if len(fields) != 3 {
				return nil, fmt.Errorf("workload: trace line %d: want 3 fields t_s,region,rate, got %d", line, len(fields))
			}
			t, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad time %q", line, fields[0])
			}
			rate, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad rate %q", line, fields[2])
			}
			row = traceRow{T: t, Region: strings.TrimSpace(fields[1]), Rate: rate}
		}
		if math.IsNaN(row.T) || math.IsInf(row.T, 0) || row.T < 0 {
			return nil, fmt.Errorf("workload: trace line %d: time %v must be finite and non-negative", line, row.T)
		}
		p.Points = append(p.Points, Point{
			At:     time.Duration(math.Round(row.T * float64(time.Second))),
			Region: row.Region,
			Rate:   row.Rate,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace: %v", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// WriteTrace serializes p in the CSV encoding ParseTrace accepts. Floats
// use the shortest representation that parses back to the same bits, so
// WriteTrace∘ParseTrace is the identity on rates (and on times with
// millisecond resolution).
func WriteTrace(w io.Writer, p *Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, TraceHeader)
	for _, pt := range p.Points {
		fmt.Fprintf(bw, "%s,%s,%s\n", fmtFloat(pt.At.Seconds()), pt.Region, fmtFloat(pt.Rate))
	}
	return bw.Flush()
}

// WriteTraceJSONL serializes p in the JSONL encoding.
func WriteTraceJSONL(w io.Writer, p *Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for _, pt := range p.Points {
		fmt.Fprintf(bw, `{"t_s":%s,"region":%s,"rate":%s}`+"\n",
			fmtFloat(pt.At.Seconds()), jsonString(pt.Region), fmtFloat(pt.Rate))
	}
	return bw.Flush()
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func jsonString(s string) string {
	b, _ := json.Marshal(s) // cannot fail on a string
	return string(b)
}
