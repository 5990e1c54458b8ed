package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/serve"
	"datastaging/internal/testnet"
)

// newHTTPService boots the two-shard 4-machine service from
// TestCrossShardAdmit behind its HTTP handler, with auditing on so the
// trace endpoints are live.
func newHTTPService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	b := testnet.NewBuilder()
	ms := b.Machines(4, 1<<40)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 1e9)
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 1e9)
	b.Link(ms[2], ms[3], 0, 24*time.Hour, 1e9)
	b.Link(ms[3], ms[2], 0, 24*time.Hour, 1e9)
	b.Link(ms[0], ms[2], 0, 24*time.Hour, 1e9)
	sc := b.Build("twoshard")

	p := &Plan{Shards: [][]model.MachineID{{0, 1}, {2, 3}}}
	if err := p.Validate(sc.Network); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	rec := lifecycle.New(lifecycle.Options{Obs: o})
	svc, err := New(sc, p, serve.Options{
		Config: cfgShard(o), VirtualClock: true, MaxBatch: 1, QueueCap: 64,
		Audit: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func postJSON(t *testing.T, url, body string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
}

// TestHTTPSharded drives the full HTTP surface of the sharded service:
// local and cross-shard submissions, ticket and trace lookups, the merged
// schedule, advance, the partition info endpoints, and the error paths.
func TestHTTPSharded(t *testing.T) {
	_, srv := newHTTPService(t)
	base := srv.URL

	getJSON(t, base+"/healthz", http.StatusOK, nil)

	// A local submission admits inside shard 0 with no coordination.
	var local serve.TicketView
	postJSON(t, base+"/v1/requests?wait=1", `{
		"sizeBytes": 1048576,
		"sources":  [{"machine": 0}],
		"requests": [{"machine": 1, "deadline": "2h", "priority": 2}]
	}`, http.StatusAccepted, &local)
	if !strings.HasPrefix(local.ID, "s0-") || local.Status != serve.StatusAdmitted {
		t.Fatalf("local ticket = %q status %q, want a shard-0 admit", local.ID, local.Status)
	}

	// A spanning submission takes the offer/commit path.
	var cross serve.TicketView
	postJSON(t, base+"/v1/requests?wait=1", `{
		"sizeBytes": 1048576,
		"sources":  [{"machine": 0}],
		"requests": [{"machine": 3, "deadline": "2h", "priority": 1}]
	}`, http.StatusAccepted, &cross)
	if cross.ID != "x-0" || cross.Status != serve.StatusAdmitted {
		t.Fatalf("cross ticket = %q status %q, want x-0 admitted", cross.ID, cross.Status)
	}

	// Malformed and invalid submissions map to 400.
	postJSON(t, base+"/v1/requests", `{"unknown": 1}`, http.StatusBadRequest, nil)
	postJSON(t, base+"/v1/requests", `{"sizeBytes": 1}`, http.StatusBadRequest, nil)

	// Ticket lookups for both kinds, and a 404 for a stranger.
	var tv serve.TicketView
	getJSON(t, base+"/v1/requests/"+local.ID, http.StatusOK, &tv)
	if tv.Status != serve.StatusAdmitted {
		t.Fatalf("%s lookup status %q", local.ID, tv.Status)
	}
	getJSON(t, base+"/v1/requests/x-0", http.StatusOK, &tv)
	if tv.Status != serve.StatusAdmitted {
		t.Fatalf("x-0 lookup status %q", tv.Status)
	}
	getJSON(t, base+"/v1/requests/nope", http.StatusNotFound, nil)

	// Trace of a cross ticket concatenates its legs' audit trails.
	var tr serve.TraceView
	getJSON(t, base+"/v1/requests/x-0/trace", http.StatusOK, &tr)
	if tr.ID != "x-0" || len(tr.Records) == 0 {
		t.Fatalf("x-0 trace: id %q, %d records", tr.ID, len(tr.Records))
	}
	getJSON(t, base+"/v1/requests/nope/trace", http.StatusNotFound, nil)

	// The audit stream is NDJSON with one line per record.
	resp, err := http.Get(base + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("audit content type %q", ct)
	}
	if !strings.Contains(string(body), `"ticket"`) {
		t.Fatalf("audit stream has no records: %q", body)
	}

	// The merged schedule covers both shards and the cut.
	var sched serve.ScheduleView
	getJSON(t, base+"/v1/schedule", http.StatusOK, &sched)
	if sched.Satisfied != 2 {
		t.Fatalf("schedule satisfied = %d, want 2", sched.Satisfied)
	}

	// Advance moves every shard's virtual clock; bad bodies are rejected.
	postJSON(t, base+"/v1/advance", `{"to": "1h"}`, http.StatusOK, nil)
	postJSON(t, base+"/v1/advance", `not json`, http.StatusBadRequest, nil)

	// Partition info: the service-wide view and one shard's own.
	var info serve.Info
	getJSON(t, base+"/v1/info", http.StatusOK, &info)
	if len(info.Shards) != 2 || info.CutLinks != 1 {
		t.Fatalf("info = %+v, want 2 shards / 1 cut link", info)
	}
	getJSON(t, base+"/v1/shards/1/info", http.StatusOK, nil)
	getJSON(t, base+"/v1/shards/9/info", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/shards/x/info", http.StatusNotFound, nil)
}

// normalizeK1 erases what legitimately distinguishes a one-shard service's
// responses from a bare engine's: the "s0-" ticket prefix, the "shard 0: "
// error prefix, the shard tag on audit records, the partition fields of
// /v1/info, and the "items" count — the service's global item registry
// counts a submission from the moment it is accepted and keeps the slot of
// a refused one until the next submission reuses it, where the engine
// counts items as their epoch runs. Bodies are re-encoded document by
// document so JSON and NDJSON responses compare alike.
func normalizeK1(t *testing.T, body string) string {
	t.Helper()
	var walk func(v any) any
	walk = func(v any) any {
		switch x := v.(type) {
		case map[string]any:
			for _, k := range []string{"shard", "shards", "cutLinks", "items"} {
				delete(x, k)
			}
			for k, e := range x {
				x[k] = walk(e)
			}
		case []any:
			for i, e := range x {
				x[i] = walk(e)
			}
		case string:
			return strings.TrimPrefix(strings.ReplaceAll(x, "s0-r-", "r-"), "shard 0: ")
		}
		return v
	}
	var out strings.Builder
	dec := json.NewDecoder(strings.NewReader(body))
	for {
		var doc any
		if err := dec.Decode(&doc); err == io.EOF {
			return out.String()
		} else if err != nil {
			return body // not JSON (healthz, the mux's own 404)
		}
		b, err := json.Marshal(walk(doc))
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
}

// TestHTTPSurfaceK1Identity: the engine and the one-shard service mount the
// same handler set, so one scripted request sequence under the virtual
// clock — submissions queued, shed, malformed and invalid, an epoch, ticket,
// trace, audit, schedule and info reads, refused advances, and intake after
// drain — draws the same status, headers and body from both.
func TestHTTPSurfaceK1Identity(t *testing.T) {
	opts := func() serve.Options {
		o := obs.New()
		return serve.Options{
			Config: cfgShard(o), VirtualClock: true, MaxBatch: 100, QueueCap: 2,
			Audit: lifecycle.New(lifecycle.Options{Obs: o}),
		}
	}
	sc := ringNet(t, 8, 1e9)
	eng, err := serve.New(sc, opts())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Greedy(sc.Network, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(sc, plan, opts())
	if err != nil {
		t.Fatal(err)
	}
	engH, svcH := eng.Handler(), svc.Handler()

	sub := func(src, dst int) string {
		return fmt.Sprintf(`{"sizeBytes": 4194304, "sources": [{"machine": %d}],
			"requests": [{"machine": %d, "deadline": "2h", "priority": 1}]}`, src, dst)
	}
	// {T} in a path is the ticket prefix: "" on the engine, "s0-" sharded.
	type step struct{ method, path, body string }
	do := func(h http.Handler, prefix string, st step) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(st.method, strings.ReplaceAll(st.path, "{T}", prefix), strings.NewReader(st.body)))
		return w
	}
	codes := make(map[int]bool)
	play := func(script ...step) {
		t.Helper()
		for _, st := range script {
			e, s := do(engH, "", st), do(svcH, "s0-", st)
			codes[e.Code] = true
			if e.Code != s.Code {
				t.Errorf("%s %s: engine %d, sharded %d", st.method, st.path, e.Code, s.Code)
			}
			if loc := s.Header().Get("Location"); loc != "" {
				s.Header().Set("Location", strings.Replace(loc, "/s0-", "/", 1))
			}
			if !reflect.DeepEqual(e.Header(), s.Header()) {
				t.Errorf("%s %s: headers diverge:\nengine:  %v\nsharded: %v", st.method, st.path, e.Header(), s.Header())
			}
			if eb, sb := normalizeK1(t, e.Body.String()), normalizeK1(t, s.Body.String()); eb != sb {
				t.Errorf("%s %s: bodies diverge:\nengine:  %s\nsharded: %s", st.method, st.path, eb, sb)
			}
		}
	}
	play(
		step{"GET", "/healthz", ""},
		step{"GET", "/v1/info", ""},
		step{"GET", "/v1/schedule", ""},
		step{"POST", "/v1/requests", sub(0, 3)},
		step{"POST", "/v1/requests", sub(5, 1)},
		step{"POST", "/v1/requests", sub(2, 6)}, // queue cap 2: shed
		step{"POST", "/v1/requests", `{"sizeBytes": `},
		step{"POST", "/v1/requests", `{"bogus": 1}`},
		step{"POST", "/v1/requests", `{"sizeBytes": 1, "sources": [{"machine": 99}], "requests": [{"machine": 1, "deadline": 1}]}`},
		step{"GET", "/v1/requests/{T}r-0", ""},
		step{"POST", "/v1/advance", `{"to": "1m"}`},
		step{"GET", "/v1/requests/{T}r-0", ""},
		step{"GET", "/v1/requests/{T}r-1/trace", ""},
		step{"GET", "/v1/requests/{T}r-9", ""},
		step{"GET", "/v1/requests/{T}r-9/trace", ""},
		step{"POST", "/v1/advance", `{"to": 0}`},
		step{"POST", "/v1/advance", `not json`},
		step{"GET", "/v1/audit", ""},
		step{"GET", "/v1/schedule", ""},
		step{"GET", "/v1/info", ""},
	)
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	play(
		step{"POST", "/v1/requests", sub(0, 3)},
		step{"GET", "/v1/info", ""},
	)
	for _, want := range []int{200, 202, 400, 404, 429, 503} {
		if !codes[want] {
			t.Errorf("script never drew a %d", want)
		}
	}

	// The surfaces differ by exactly one route.
	if w := do(engH, "", step{"GET", "/v1/shards/0/info", ""}); w.Code != http.StatusNotFound {
		t.Errorf("engine serves /v1/shards/0/info: %d", w.Code)
	}
	if w := do(svcH, "", step{"GET", "/v1/shards/0/info", ""}); w.Code != http.StatusOK {
		t.Errorf("sharded /v1/shards/0/info: %d", w.Code)
	}
	w := do(svcH, "", step{"GET", "/v1/shards/1/info", ""})
	if w.Code != http.StatusNotFound || w.Header().Get("Content-Type") != "application/json" ||
		w.Body.String() != `{"error":"no such shard \"1\""}`+"\n" {
		t.Errorf("unknown shard: %d %v %q", w.Code, w.Header(), w.Body.String())
	}
}
