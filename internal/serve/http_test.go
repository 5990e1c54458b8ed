package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/simtime"
)

// stubTicket is a Pending that decides only when decided is set.
type stubTicket struct{ decided bool }

func (t stubTicket) ID() string { return "t-7" }
func (t stubTicket) Done() <-chan struct{} {
	ch := make(chan struct{})
	if t.decided {
		close(ch)
	}
	return ch
}
func (t stubTicket) View() TicketView {
	return TicketView{ID: "t-7", Status: StatusQueued, Item: -1}
}

// stubAPI is an API whose every outcome the envelope table dictates: the
// error Submit and Advance return, whether the service is wedged, whether
// tickets ever decide, and whether auditing is on.
type stubAPI struct {
	opErr    error // returned by Submit and Advance
	wedged   error // returned by Err
	decided  bool
	rec      *lifecycle.Recorder
	machines int // > 0: Submit validates against this many machines first
}

func (s stubAPI) Submit(sub Submission) (stubTicket, error) {
	if s.machines > 0 {
		if err := sub.validate(s.machines); err != nil {
			return stubTicket{}, err
		}
	}
	return stubTicket{decided: s.decided}, s.opErr
}
func (s stubAPI) TicketView(id string) (TicketView, bool) {
	return stubTicket{}.View(), id == "t-7"
}
func (s stubAPI) Trail(id string) []lifecycle.Record { return s.rec.ForTicket(id) }
func (s stubAPI) Audit() *lifecycle.Recorder         { return s.rec }
func (s stubAPI) Schedule() ScheduleView             { return ScheduleView{} }
func (s stubAPI) Info() Info                         { return Info{Scenario: "stub"} }
func (s stubAPI) Advance(simtime.Instant) error      { return s.opErr }
func (s stubAPI) Err() error                         { return s.wedged }

// TestHTTPEnvelope pins the whole response envelope — status, headers,
// body — of every route and every row of the error→status table, against a
// stub so the rows no real engine reaches on demand (a wedged service, a
// caller that gives up on ?wait=1) are covered too.
func TestHTTPEnvelope(t *testing.T) {
	const (
		validSub = `{"sizeBytes": 1, "sources": [{"machine": 0}], "requests": [{"machine": 1, "deadline": "1h", "priority": 0}]}`
		queued   = "{\n  \"id\": \"t-7\",\n  \"status\": \"queued\",\n  \"item\": -1,\n  \"arrived\": 0\n}\n"
		schedule = "{\n  \"now\": 0,\n  \"epochs\": 0,\n  \"items\": 0,\n  \"totalRequests\": 0,\n" +
			"  \"satisfied\": 0,\n  \"weightedValue\": 0,\n  \"transfers\": null\n}\n"
		info = "{\n  \"scenario\": \"stub\",\n  \"machines\": 0,\n  \"links\": 0,\n  \"items\": 0,\n" +
			"  \"horizon\": 0,\n  \"now\": 0,\n  \"queue\": 0,\n  \"queueCap\": 0,\n" +
			"  \"virtualClock\": false,\n  \"timeScale\": 0,\n  \"scheduler\": \"\",\n  \"draining\": false\n}\n"
		jsonType = "application/json"
	)
	audited := lifecycle.New(lifecycle.Options{})
	audited.SetDeterministic(true)
	audited.Append(&lifecycle.Record{Kind: lifecycle.KindDecision, Ticket: "t-7", Status: "admitted"})
	invalid := errors.New("serve: submission has no sources")
	backwards := errors.New("serve: cannot advance backwards (0s < 1m0s)")
	boom := errors.New("core: replan failed")

	for _, tc := range []struct {
		name         string
		svc          stubAPI
		method, path string
		body         string
		gaveUp       bool // the caller's context is already cancelled
		code         int
		header       map[string]string // beyond Content-Type
		ctype, want  string            // want "" skips the body comparison
	}{
		{name: "submit", method: "POST", path: "/v1/requests", body: validSub,
			code: 202, header: map[string]string{"Location": "/v1/requests/t-7"}, ctype: jsonType, want: queued},
		{name: "submit wait", svc: stubAPI{decided: true}, method: "POST", path: "/v1/requests?wait=1", body: validSub,
			code: 202, header: map[string]string{"Location": "/v1/requests/t-7"}, ctype: jsonType, want: queued},
		{name: "submit malformed", method: "POST", path: "/v1/requests", body: `{"sizeBytes": `,
			code: 400, ctype: jsonType, want: `{"error":"bad request body: unexpected EOF"}` + "\n"},
		{name: "submit unknown field", method: "POST", path: "/v1/requests", body: `{"bogus": 1}`,
			code: 400, ctype: jsonType, want: `{"error":"bad request body: json: unknown field \"bogus\""}` + "\n"},
		{name: "submit invalid", svc: stubAPI{opErr: invalid}, method: "POST", path: "/v1/requests", body: `{}`,
			code: 400, ctype: jsonType, want: `{"error":"serve: submission has no sources"}` + "\n"},
		{name: "submit duplicate source", svc: stubAPI{machines: 4}, method: "POST", path: "/v1/requests",
			body: `{"sizeBytes": 1, "sources": [{"machine": 0}, {"machine": 2}, {"machine": 0}], "requests": [{"machine": 1, "deadline": "1h"}]}`,
			code: 400, ctype: jsonType, want: `{"error":"serve: duplicate source machine 0"}` + "\n"},
		{name: "submit duplicate request", svc: stubAPI{machines: 4}, method: "POST", path: "/v1/requests",
			body: `{"sizeBytes": 1, "sources": [{"machine": 0}], "requests": [{"machine": 1, "deadline": "1h"}, {"machine": 3, "deadline": "1h"}, {"machine": 1, "deadline": "2h"}]}`,
			code: 400, ctype: jsonType, want: `{"error":"serve: duplicate request machine 1"}` + "\n"},
		{name: "submit request is source", svc: stubAPI{machines: 4}, method: "POST", path: "/v1/requests",
			body: `{"sizeBytes": 1, "sources": [{"machine": 0}, {"machine": 2}], "requests": [{"machine": 1, "deadline": "1h"}, {"machine": 2, "deadline": "1h"}]}`,
			code: 400, ctype: jsonType, want: `{"error":"serve: request machine 2 is also a source"}` + "\n"},
		{name: "submit source out of range", svc: stubAPI{machines: 4}, method: "POST", path: "/v1/requests",
			body: `{"sizeBytes": 1, "sources": [{"machine": 0}, {"machine": 4}], "requests": [{"machine": 1, "deadline": "1h"}]}`,
			code: 400, ctype: jsonType, want: `{"error":"serve: source machine 4 out of range [0,4)"}` + "\n"},
		{name: "submit request out of range", svc: stubAPI{machines: 4}, method: "POST", path: "/v1/requests",
			body: `{"sizeBytes": 1, "sources": [{"machine": 0}], "requests": [{"machine": 1, "deadline": "1h"}, {"machine": -1, "deadline": "1h"}]}`,
			code: 400, ctype: jsonType, want: `{"error":"serve: request machine -1 out of range [0,4)"}` + "\n"},
		{name: "submit negative priority", svc: stubAPI{machines: 4}, method: "POST", path: "/v1/requests",
			body: `{"sizeBytes": 1, "sources": [{"machine": 0}], "requests": [{"machine": 1, "deadline": "1h", "priority": -2}]}`,
			code: 400, ctype: jsonType, want: `{"error":"serve: negative priority -2"}` + "\n"},
		{name: "submit wait abandoned", method: "POST", path: "/v1/requests?wait=1", body: validSub, gaveUp: true,
			code: 408, ctype: jsonType, want: `{"error":"context canceled"}` + "\n"},
		{name: "submit overloaded", svc: stubAPI{opErr: ErrOverloaded}, method: "POST", path: "/v1/requests", body: validSub,
			code: 429, header: map[string]string{"Retry-After": "1"}, ctype: jsonType,
			want: `{"error":"serve: intake queue full"}` + "\n"},
		{name: "submit overloaded while wedged", svc: stubAPI{opErr: ErrOverloaded, wedged: boom}, method: "POST", path: "/v1/requests", body: validSub,
			code: 429, header: map[string]string{"Retry-After": "1"}, ctype: jsonType,
			want: `{"error":"serve: intake queue full"}` + "\n"},
		{name: "submit wedged", svc: stubAPI{opErr: boom, wedged: boom}, method: "POST", path: "/v1/requests", body: validSub,
			code: 500, ctype: jsonType, want: `{"error":"core: replan failed"}` + "\n"},
		{name: "submit draining", svc: stubAPI{opErr: ErrDraining, wedged: boom}, method: "POST", path: "/v1/requests", body: validSub,
			code: 503, ctype: jsonType, want: `{"error":"serve: draining, intake closed"}` + "\n"},

		{name: "ticket", method: "GET", path: "/v1/requests/t-7", code: 200, ctype: jsonType, want: queued},
		{name: "ticket unknown", method: "GET", path: "/v1/requests/nope",
			code: 404, ctype: jsonType, want: `{"error":"no such request \"nope\""}` + "\n"},
		{name: "trace", svc: stubAPI{rec: audited}, method: "GET", path: "/v1/requests/t-7/trace",
			code: 200, ctype: jsonType},
		{name: "trace audit off", method: "GET", path: "/v1/requests/t-7/trace",
			code: 404, ctype: jsonType, want: `{"error":"auditing is disabled on this engine"}` + "\n"},
		{name: "trace unknown", svc: stubAPI{rec: audited}, method: "GET", path: "/v1/requests/nope/trace",
			code: 404, ctype: jsonType, want: `{"error":"no such request \"nope\""}` + "\n"},
		{name: "audit", svc: stubAPI{rec: audited}, method: "GET", path: "/v1/audit",
			code: 200, ctype: "application/x-ndjson"},
		{name: "audit off", method: "GET", path: "/v1/audit",
			code: 404, ctype: jsonType, want: `{"error":"auditing is disabled on this engine"}` + "\n"},

		{name: "schedule", method: "GET", path: "/v1/schedule", code: 200, ctype: jsonType, want: schedule},
		{name: "advance", method: "POST", path: "/v1/advance", body: `{"to": "90m"}`,
			code: 200, ctype: jsonType, want: info},
		{name: "advance malformed", method: "POST", path: "/v1/advance", body: `not json`,
			code: 400, ctype: jsonType},
		{name: "advance refused", svc: stubAPI{opErr: backwards}, method: "POST", path: "/v1/advance", body: `{"to": 0}`,
			code: 400, ctype: jsonType, want: `{"error":"serve: cannot advance backwards (0s \u003c 1m0s)"}` + "\n"},
		{name: "advance wedged", svc: stubAPI{opErr: boom, wedged: boom}, method: "POST", path: "/v1/advance", body: `{"to": 1}`,
			code: 500, ctype: jsonType, want: `{"error":"core: replan failed"}` + "\n"},

		{name: "info", method: "GET", path: "/v1/info", code: 200, ctype: jsonType, want: info},
		{name: "healthz", method: "GET", path: "/healthz", code: 200, ctype: "text/plain; charset=utf-8", want: "ok\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			if tc.gaveUp {
				ctx, cancel := context.WithCancel(req.Context())
				cancel()
				req = req.WithContext(ctx)
			}
			w := httptest.NewRecorder()
			NewHandler(tc.svc, nil).ServeHTTP(w, req)
			if w.Code != tc.code {
				t.Errorf("status %d, want %d", w.Code, tc.code)
			}
			want := http.Header{"Content-Type": {tc.ctype}}
			for k, v := range tc.header {
				want.Set(k, v)
			}
			got := w.Header()
			if len(got) != len(want) {
				t.Errorf("headers %v, want %v", got, want)
			}
			for k := range want {
				if got.Get(k) != want.Get(k) {
					t.Errorf("header %s = %q, want %q", k, got.Get(k), want.Get(k))
				}
			}
			if tc.want != "" && w.Body.String() != tc.want {
				t.Errorf("body %q, want %q", w.Body.String(), tc.want)
			}
		})
	}
}
