package main

import (
	"bytes"
	"strings"
	"testing"

	"datastaging/internal/cliconf"
	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/chrometrace"
)

func ev(parts string) string { return "{" + parts + "}" }

func file(events ...string) []byte {
	return []byte(`{"traceEvents":[` + strings.Join(events, ",") + `]}`)
}

func TestValidateAcceptsWellFormedTrace(t *testing.T) {
	tf, err := validate(file(
		ev(`"name":"process_name","ph":"M","pid":1,"tid":0`),
		ev(`"name":"a","ph":"X","cat":"transfer","ts":0,"dur":10,"pid":1,"tid":0`),
		ev(`"name":"b","ph":"X","cat":"transfer","ts":10,"dur":5,"pid":1,"tid":0`),
		ev(`"name":"c","ph":"X","cat":"transfer","ts":3,"dur":4,"pid":1,"tid":1`),
		ev(`"name":"sat","ph":"i","ts":15,"pid":5,"tid":0`),
		ev(`"name":"staged","ph":"C","ts":1,"pid":4,"tid":0`),
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) != 6 {
		t.Errorf("parsed %d events", len(tf.TraceEvents))
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]struct {
		data []byte
		want string
	}{
		"junk":  {[]byte("{"), "not valid JSON"},
		"empty": {[]byte(`{"traceEvents":[]}`), "empty"},
		"no transfers": {file(
			ev(`"name":"sat","ph":"i","ts":15,"pid":5,"tid":0`)), "no transfer spans"},
		"bad phase": {file(
			ev(`"name":"a","ph":"Q","ts":0,"pid":1,"tid":0`)), "unknown phase"},
		"negative ts": {file(
			ev(`"name":"a","ph":"X","cat":"transfer","ts":-1,"dur":2,"pid":1,"tid":0`)), "negative timestamp"},
		"negative dur": {file(
			ev(`"name":"a","ph":"X","cat":"transfer","ts":0,"dur":-2,"pid":1,"tid":0`)), "negative duration"},
		"non-monotone track": {file(
			ev(`"name":"a","ph":"X","cat":"transfer","ts":10,"dur":1,"pid":1,"tid":0`),
			ev(`"name":"b","ph":"X","cat":"transfer","ts":5,"dur":1,"pid":1,"tid":0`)), "not monotone"},
		"overlapping transfers": {file(
			ev(`"name":"a","ph":"X","cat":"transfer","ts":0,"dur":10,"pid":1,"tid":0`),
			ev(`"name":"b","ph":"X","cat":"transfer","ts":5,"dur":1,"pid":1,"tid":0`)), "overlaps"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := validate(tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestValidateAllowsDifferentTracksToOverlap(t *testing.T) {
	_, err := validate(file(
		ev(`"name":"a","ph":"X","cat":"transfer","ts":0,"dur":10,"pid":1,"tid":0`),
		ev(`"name":"b","ph":"X","cat":"transfer","ts":5,"dur":10,"pid":1,"tid":1`),
	))
	if err != nil {
		t.Errorf("cross-track overlap rejected: %v", err)
	}
}

// TestValidateAcceptsExportedRun exports seed 11 the way
// `stagerun -seed 11 -chrome-trace-out FILE` does — the default
// full_one/C4 planner at log10(E-U) = 2, a memory sink on a traced
// observer, chrometrace.WriteFile — and holds the file to every
// structural check.
func TestValidateAcceptsExportedRun(t *testing.T) {
	sc, err := cliconf.LoadScenario("", 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cliconf.BuildConfig("full_one", "C4", "2", model.Weights1x10x100)
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.MemorySink{}
	cfg.Obs = obs.NewTraced(sink)
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := chrometrace.WriteFile(&buf, sc, res, sink.Events()); err != nil {
		t.Fatal(err)
	}
	if _, err := validate(buf.Bytes()); err != nil {
		t.Fatalf("exported seed-11 trace rejected: %v", err)
	}
}
