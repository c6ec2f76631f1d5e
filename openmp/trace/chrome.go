package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event JSON array — the
// format Perfetto (ui.perfetto.dev) and chrome://tracing load directly.
// Span kinds are emitted as B/E duration pairs per thread track; instant
// kinds as thread-scoped "i" events; thread names as "M" metadata.
type chromeEvent struct {
	Name string           `json:"name,omitempty"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"` // microseconds
	Pid  int              `json:"pid"`
	Tid  int32            `json:"tid"`
	S    string           `json:"s,omitempty"`
	Args map[string]int64 `json:"args,omitempty"`
}

// chromeSpec maps an event kind onto its Chrome phase, track name and
// argument label.
var chromeSpec = [kindMax]struct {
	ph, name, argName string
}{
	KindRegionFork:    {"B", "parallel region", "threads"},
	KindRegionJoin:    {"E", "", ""},
	KindImplicitBegin: {"B", "implicit task", ""},
	KindImplicitEnd:   {"E", "", ""},
	KindBarrierEnter:  {"B", "barrier wait", "explicit"},
	KindBarrierLeave:  {"E", "", ""},
	KindChunk:         {"i", "chunk", ""}, // packed Arg: unpacked inline below
	KindTaskCreate:    {"i", "task create", ""},
	KindTaskBegin:     {"B", "task", ""},
	KindTaskEnd:       {"E", "", ""},
	KindTaskSteal:     {"i", "task steal", ""}, // packed Arg: unpacked inline below
	KindPark:          {"i", "park", ""},
	KindWake:          {"i", "wake", ""},
}

// WriteChrome renders the trace as a Chrome trace-event JSON object
// ({"traceEvents": [...]}). Events must be in the order Collect returns
// (non-decreasing TS); the output is loadable by Perfetto.
func WriteChrome(w io.Writer, d Data) error {
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(&noNewline{w})
	first := true
	write := func(ce chromeEvent) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ce)
	}
	// Thread-name metadata first, so Perfetto labels the tracks. Metadata
	// args are strings, unlike the int64 args of chromeEvent, so these are
	// written literally.
	for tid := 0; tid < d.Threads; tid++ {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		if _, err := fmt.Fprintf(w,
			`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"omp thread %d"}}`,
			tid, tid); err != nil {
			return err
		}
	}
	for _, e := range d.Events {
		if int(e.Kind) >= len(chromeSpec) || chromeSpec[e.Kind].ph == "" {
			continue
		}
		spec := chromeSpec[e.Kind]
		ce := chromeEvent{
			Name: spec.name,
			Ph:   spec.ph,
			TS:   float64(e.TS) / 1e3,
			Pid:  0,
			Tid:  e.Tid,
		}
		if spec.ph == "i" {
			ce.S = "t"
		}
		if spec.ph != "E" {
			ce.Args = map[string]int64{"region": int64(e.Region), "level": int64(e.Level)}
			// Packed payloads (see StealArg, ChunkArg) unpack into separate
			// args so Perfetto shows each field on its own.
			switch e.Kind {
			case KindTaskSteal:
				ce.Args["victim"] = int64(e.StealVictim())
				ce.Args["batch"] = int64(e.StealBatch())
				ce.Args["locality"] = int64(e.StealLocality())
			case KindChunk:
				ce.Args["iters"] = int64(e.ChunkIters())
				ce.Args["claim_ns"] = e.ClaimNS()
			default:
				if spec.argName != "" {
					ce.Args[spec.argName] = e.Arg
				}
			}
		}
		if err := write(ce); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}")
	return err
}

// noNewline strips the trailing newline json.Encoder appends, keeping the
// array single-line-per-event without double separators.
type noNewline struct{ w io.Writer }

func (n *noNewline) Write(p []byte) (int, error) {
	m := len(p)
	for m > 0 && p[m-1] == '\n' {
		m--
	}
	if m > 0 {
		if _, err := n.w.Write(p[:m]); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// ValidateChrome parses a Chrome trace-event JSON document and checks its
// shape: a non-empty traceEvents array whose entries carry ph/pid/tid and a
// numeric ts, with timestamps non-decreasing in file order (metadata events
// excepted). With strictPairs — valid only when the trace dropped no events
// — it additionally checks that every thread's B/E spans balance and close.
// It returns the number of non-metadata events.
func ValidateChrome(r io.Reader, strictPairs bool) (int, error) {
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Tid  int32    `json:"tid"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("trace: empty traceEvents array")
	}
	n := 0
	lastTS := -1.0
	depth := map[int32]int{}
	for i, e := range doc.TraceEvents {
		if e.Ph == "" {
			return n, fmt.Errorf("trace: event %d has no ph", i)
		}
		if e.Ph == "M" {
			continue
		}
		n++
		if e.TS == nil {
			return n, fmt.Errorf("trace: event %d (%s) has no ts", i, e.Ph)
		}
		if *e.TS < lastTS {
			return n, fmt.Errorf("trace: event %d ts %v decreases below %v", i, *e.TS, lastTS)
		}
		lastTS = *e.TS
		switch e.Ph {
		case "B":
			depth[e.Tid]++
		case "E":
			depth[e.Tid]--
			if strictPairs && depth[e.Tid] < 0 {
				return n, fmt.Errorf("trace: event %d: E without matching B on tid %d", i, e.Tid)
			}
		case "i", "I", "X":
			// instants and complete events need no pairing
		default:
			return n, fmt.Errorf("trace: event %d has unsupported ph %q", i, e.Ph)
		}
	}
	if strictPairs {
		for tid, d := range depth {
			if d != 0 {
				return n, fmt.Errorf("trace: tid %d ends with %d unclosed span(s)", tid, d)
			}
		}
	}
	return n, nil
}
