// Command tracecheck validates a Chrome trace-event JSON file the way CI
// needs it validated before anyone loads it into Perfetto: the file is
// well-formed JSON with a non-empty traceEvents array, every event carries
// a known phase, complete ("X") spans have non-negative timestamps and
// durations, events within each (pid, tid) track appear in monotone
// timestamp order (the encoder's contract), and transfer spans on one
// track never overlap — a virtual link is a serial resource, so two
// transfers occupying it at once means the exporter (or the schedule)
// is broken. It is stdlib-only; its own test exports a paper-scale run the
// way `stagerun -chrome-trace-out` does and holds it to every check.
//
// Usage: tracecheck trace.json [more.json ...]
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// event is the subset of the Chrome trace-event schema the checks read.
type event struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Cat  string  `json:"cat"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

type traceFile struct {
	TraceEvents []event `json:"traceEvents"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck trace.json [more.json ...]")
		os.Exit(2)
	}
	status := 0
	for _, path := range os.Args[1:] {
		if err := check(path); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			status = 1
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	os.Exit(status)
}

func check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tf, err := validate(data)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d events\n", path, len(tf.TraceEvents))
	return nil
}

// validate runs every structural check and returns the parsed file.
func validate(data []byte) (*traceFile, error) {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("not valid JSON: %w", err)
	}
	if len(tf.TraceEvents) == 0 {
		return nil, fmt.Errorf("traceEvents is empty")
	}

	type track struct{ pid, tid int }
	lastTs := make(map[track]float64)
	transferEnd := make(map[track]float64)
	transfers := 0
	for i, e := range tf.TraceEvents {
		switch e.Ph {
		case "X", "i", "C", "M":
		default:
			return nil, fmt.Errorf("event %d (%q): unknown phase %q", i, e.Name, e.Ph)
		}
		if e.Ph == "M" {
			continue // metadata has no timeline position
		}
		if e.Ts < 0 {
			return nil, fmt.Errorf("event %d (%q): negative timestamp %v", i, e.Name, e.Ts)
		}
		if e.Ph == "X" && e.Dur < 0 {
			return nil, fmt.Errorf("event %d (%q): negative duration %v", i, e.Name, e.Dur)
		}
		k := track{e.Pid, e.Tid}
		if prev, seen := lastTs[k]; seen && e.Ts < prev {
			return nil, fmt.Errorf("event %d (%q): track %d/%d not monotone: ts %v after %v",
				i, e.Name, e.Pid, e.Tid, e.Ts, prev)
		}
		lastTs[k] = e.Ts
		if e.Cat == "transfer" && e.Ph == "X" {
			transfers++
			// Timestamps are microseconds stored as float64; summing ts+dur
			// near 1e9 µs leaves ~1e-7 µs of representation error, so allow
			// overlap below one nanosecond (1e-3 µs).
			if end, seen := transferEnd[k]; seen && e.Ts < end-1e-3 {
				return nil, fmt.Errorf("event %d (%q): transfer overlaps previous span on track %d/%d (starts %v before %v)",
					i, e.Name, e.Pid, e.Tid, e.Ts, end)
			}
			if e.Ts+e.Dur > transferEnd[k] {
				transferEnd[k] = e.Ts + e.Dur
			}
		}
	}
	if transfers == 0 {
		return nil, fmt.Errorf("no transfer spans (cat %q, ph \"X\")", "transfer")
	}
	return &tf, nil
}
