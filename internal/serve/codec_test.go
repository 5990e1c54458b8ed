package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/introspect"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

// refDecodeBody is the reference every submission body is held to: the
// body decoded by json.Decoder straight off the request, unknown fields
// refused, a failure answered with the 400 envelope.
func refDecodeBody(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func postBody(b []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(b))
}

// handSeeds are canonical bodies: the parser takes each of them.
var handSeeds = []string{
	`{"name":"w-000001","sizeBytes":4194304,"sources":[{"machine":0}],"requests":[{"machine":3,"deadline":5400000000000,"priority":2}]}`,
	`{"sizeBytes": 4194304, "sources": [{"machine": 0, "available": 60000000000}],
	  "requests": [{"machine": 1, "deadline": 90, "priority": 2}, {"machine": 2, "deadline": 1, "priority": 0}]}`,
	`{"sizeBytes":1,"sources":[],"requests":[]}`,
	`{}`,
	` {"sources":[{}]}  `,
	`{"name":"a<b>&c"}`,
	`{"sizeBytes":-0}`,
	`{"sizeBytes":9223372036854775807}`,
	`{"sizeBytes":-9223372036854775808}`,
	`{"requests":[{"machine":1,"deadline":-7}]}`,
	"\t{\r\n\"sizeBytes\"\t:\n7}\n",
}

// fallbackSeeds are near misses on every rule of the canonical shape and
// malformed bodies: each goes to json.Decoder.
var fallbackSeeds = []string{
	`{"sizeBytes":1}{"sizeBytes":2}`,
	`{"sizeBytes":1} trailing`,
	`{"name":"a","name":"b"}`,
	`{"sources":[{"machine":1,"machine":2}]}`,
	`{"SizeBytes":5}`,
	`{"sizebytes":5}`,
	`{"name":"caf\u00e9"}`,
	`{"name":"café"}`,
	`{"name":"` + "\xff" + `"}`,
	`{"name":null}`,
	`{"sources":null}`,
	`null`,
	``,
	`{"sizeBytes":`,
	`{"sizeBytes":1.0}`,
	`{"sizeBytes":1e3}`,
	`{"sizeBytes":01}`,
	`{"sizeBytes":+1}`,
	`{"sizeBytes":9223372036854775808}`,
	`{"sizeBytes":-9223372036854775809}`,
	`{"sizeBytes":123456789012345678901234}`,
	`{"sizeBytes":"5"}`,
	`{"requests":[{"machine":1,"deadline":"90m","priority":1}]}`,
	`{"requests":[{"machine":1,"deadline":null}]}`,
	`{"requests":[{"machine":1,"deadline":1.5}]}`,
	`{"requests":[{"machine":1,}]}`,
	`{"requests":[{"machine":1}],}`,
	`{"bogus":1}`,
	`{"sources":[{"machine":1,"bogus":2}]}`,
	`{"name":"tab	inside"}`,
	`{"name":"esc\"aped"}`,
	`[1,2]`,
	`{"sources":{"machine":1}}`,
}

// checkSubmissionBody holds the hand parser and decodeBody to the reference
// decoder on one body.
func checkSubmissionBody(t *testing.T, body []byte) {
	var want Submission
	wantRec := httptest.NewRecorder()
	wantOK := refDecodeBody(wantRec, body, &want)

	var hand Submission
	if parseSubmission(body, &hand) {
		if !wantOK {
			t.Fatalf("parser accepted %q, decoder refused it: %s", body, wantRec.Body)
		}
		if !reflect.DeepEqual(hand, want) {
			t.Fatalf("%q:\nparser  %#v\ndecoder %#v", body, hand, want)
		}
	}

	var got Submission
	gotRec := httptest.NewRecorder()
	if gotOK := decodeBody(gotRec, postBody(body), &got); gotOK != wantOK {
		t.Fatalf("%q: decodeBody %v, reference %v", body, gotOK, wantOK)
	}
	if wantOK && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\ndecodeBody %#v\nreference  %#v", body, got, want)
	}
	if gotRec.Code != wantRec.Code || !reflect.DeepEqual(gotRec.Header(), wantRec.Header()) ||
		gotRec.Body.String() != wantRec.Body.String() {
		t.Fatalf("%q: answer differs:\ngot  %d %v %s\nwant %d %v %s", body,
			gotRec.Code, gotRec.Header(), gotRec.Body, wantRec.Code, wantRec.Header(), wantRec.Body)
	}
}

func FuzzSubmissionDecode(f *testing.F) {
	for _, s := range append(handSeeds, fallbackSeeds...) {
		f.Add([]byte(s))
	}
	f.Fuzz(checkSubmissionBody)
}

// refWriteJSON is what WriteJSON answers for v.
func refWriteJSON(code int, v any) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	WriteJSON(rec, code, v)
	return rec
}

// checkTicketEncode holds writeTicket to WriteJSON on one view: status,
// headers and bytes.
func checkTicketEncode(t *testing.T, v TicketView) {
	t.Helper()
	want := refWriteJSON(http.StatusAccepted, v)
	got := httptest.NewRecorder()
	writeTicket(got, http.StatusAccepted, &v)
	if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) {
		t.Fatalf("status/headers: got %d %v, want %d %v", got.Code, got.Header(), want.Code, want.Header())
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("view %#v:\ngot\n%s\nwant\n%s", v, got.Body, want.Body)
	}
}

// fuzzView builds a random view: the fuzzed strings go into every string
// field, rnd picks the numbers and slice shapes, including nil versus
// empty slices and zero omitempty members.
func fuzzView(id, status, reason string, seed int64) TicketView {
	rnd := rand.New(rand.NewSource(seed))
	num := func() int64 {
		switch rnd.Intn(4) {
		case 0:
			return 0
		case 1:
			return -1 - rnd.Int63n(5)
		case 2:
			return rnd.Int63()
		}
		return rnd.Int63n(100)
	}
	v := TicketView{ID: id, Status: Status(status), Item: int(num()), Epoch: Instant(num()), Arrived: Instant(num())}
	switch rnd.Intn(3) {
	case 0:
		v.Requests = []RequestVerdict{}
	case 1:
		for i := rnd.Intn(4); i >= 0; i-- {
			v.Requests = append(v.Requests, RequestVerdict{
				Request:    model.RequestID{Item: model.ItemID(num()), Index: int(num())},
				Machine:    int(num()),
				Status:     Status([]string{status, "admitted", ""}[rnd.Intn(3)]),
				Deadline:   Instant(num()),
				Completion: Instant(num()),
				Reason:     []string{reason, "", "starved-by-contention"}[rnd.Intn(3)],
				BlamedLink: int(num()),
			})
		}
	}
	switch rnd.Intn(3) {
	case 0:
		v.Route = []state.Transfer{}
	case 1:
		for i := rnd.Intn(4); i >= 0; i-- {
			v.Route = append(v.Route, state.Transfer{
				Item: model.ItemID(num()), Link: model.LinkID(num()),
				From: model.MachineID(num()), To: model.MachineID(num()),
				Start: simtime.Instant(num()), Duration: time.Duration(num()), Arrival: simtime.Instant(num()),
			})
		}
	}
	return v
}

func FuzzTicketViewEncode(f *testing.F) {
	f.Add("r-0", "admitted", "", int64(1))
	f.Add("s1-r-12", "rejected", "starved-by-contention", int64(2))
	f.Add("", "", "", int64(3))
	f.Add("x-<1>&", "queued", "cross-shard: \"quoted\" \\ back", int64(4))
	f.Add("caf\u00e9 \u2028\u2029", "\x00\x1f\x7f", "bad \xff\xfe utf-8", int64(5))
	f.Add("tab\tnew\nline", "日本", "\u00e9\u0301", int64(6))
	// One character that needs care per seed, in the id every view
	// carries, so no other character can hide a missed case.
	for i, c := range []string{"<", ">", "&", `"`, `\`, "\u2028", "\u2029", "\x7f", "\xff", "\x00", "\n", "é"} {
		f.Add("r-"+c, "queued", "", int64(7+i))
	}
	f.Fuzz(func(t *testing.T, id, status, reason string, seed int64) {
		checkTicketEncode(t, fuzzView(id, status, reason, seed))
	})
}

// TestTicketEncodeStream: every view the oversubscribed stream of
// TestOfferEqualsFlush produces — queued, each fresh verdict, and each
// final one after late admissions — encodes to WriteJSON's bytes, through
// both routes that write a ticket.
func TestTicketEncodeStream(t *testing.T) {
	base, arrivals := offerStream(t)
	se := newStreamEngine(t, base)
	h := se.Handler()
	var ids []string
	rejected, routed := 0, 0
	for _, a := range arrivals {
		if err := se.Advance(simtime.Instant(a.At)); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(SubmissionFromArrival(a))
		if err != nil {
			t.Fatal(err)
		}
		post := httptest.NewRecorder()
		h.ServeHTTP(post, postBody(body))
		tk := strings.TrimPrefix(post.Header().Get("Location"), "/v1/requests/")
		queued, ok := se.TicketView(tk)
		if post.Code != http.StatusAccepted || !ok || queued.Status != StatusQueued {
			t.Fatalf("POST %s: %d %s", body, post.Code, post.Body)
		}
		if want := refWriteJSON(http.StatusAccepted, queued); post.Body.String() != want.Body.String() {
			t.Fatalf("queued %s:\ngot\n%s\nwant\n%s", tk, post.Body, want.Body)
		}
		if err := se.Advance(simtime.Instant(a.At)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, tk)
		checkTicketGet(t, h, se.Engine, tk)
	}
	for _, id := range ids {
		v := checkTicketGet(t, h, se.Engine, id)
		if v.Status == StatusRejected {
			rejected++
		}
		if len(v.Route) > 0 {
			routed++
		}
	}
	if rejected == 0 || routed == 0 {
		t.Fatalf("stream encoded %d rejected and %d routed views: not the mix the check is for", rejected, routed)
	}
}

// checkTicketGet compares GET /v1/requests/{id} with WriteJSON of the
// engine's view and returns that view.
func checkTicketGet(t *testing.T, h http.Handler, e *Engine, id string) TicketView {
	t.Helper()
	v, ok := e.TicketView(id)
	if !ok {
		t.Fatalf("no ticket %s", id)
	}
	got := httptest.NewRecorder()
	h.ServeHTTP(got, httptest.NewRequest(http.MethodGet, "/v1/requests/"+id, nil))
	want := refWriteJSON(http.StatusOK, v)
	if got.Code != want.Code || got.Body.String() != want.Body.String() {
		t.Fatalf("GET %s: got %d\n%s\nwant %d\n%s", id, got.Code, got.Body, want.Code, want.Body)
	}
	return v
}

// TestCanonicalBodiesTakeHandPath: the traffic that exists — the
// benchmark's own submission documents and every body serve.Client sends —
// is the canonical shape, so it never reaches the fallback decoder.
func TestCanonicalBodiesTakeHandPath(t *testing.T) {
	// The benchmark's wire structs (benchmark/traffic.go), field for field.
	type sourceSpec struct {
		Machine int `json:"machine"`
	}
	type requestSpec struct {
		Machine  int   `json:"machine"`
		Deadline int64 `json:"deadline"`
		Priority int   `json:"priority"`
	}
	type submission struct {
		Name      string        `json:"name"`
		SizeBytes int64         `json:"sizeBytes"`
		Sources   []sourceSpec  `json:"sources"`
		Requests  []requestSpec `json:"requests"`
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		sub := submission{Name: fmt.Sprintf("w-%06d", i), SizeBytes: 4<<20 + rnd.Int63n(124<<20)}
		for k := rnd.Intn(2); k >= 0; k-- {
			sub.Sources = append(sub.Sources, sourceSpec{Machine: rnd.Intn(40)})
		}
		for k := rnd.Intn(3); k >= 0; k-- {
			sub.Requests = append(sub.Requests, requestSpec{
				Machine: rnd.Intn(40), Deadline: rnd.Int63n(int64(24 * time.Hour)), Priority: rnd.Intn(3)})
		}
		body, err := json.Marshal(sub)
		if err != nil {
			t.Fatal(err)
		}
		var s Submission
		if !parseSubmission(body, &s) {
			t.Fatalf("benchmark body %s takes the fallback", body)
		}
		checkSubmissionBody(t, body)
	}

	// serve.Client's bodies, as they arrive at a server.
	var bodies [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		bodies = append(bodies, b)
		WriteJSON(w, http.StatusAccepted, TicketView{})
	}))
	defer srv.Close()
	c := Client{BaseURL: srv.URL}
	for _, sub := range []Submission{
		benchSub(1),
		{SizeBytes: 1, Sources: []SourceSpec{{Machine: 2, Available: Instant(time.Minute)}, {Machine: 0}},
			Requests: []RequestSpec{{Machine: 1, Deadline: 1, Priority: 0}, {Machine: 3}}},
		{Name: "zeros", Sources: []SourceSpec{{}}, Requests: []RequestSpec{{}}},
	} {
		if _, err := c.Submit(context.Background(), sub, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, body := range bodies {
		var s Submission
		if !parseSubmission(body, &s) {
			t.Errorf("client body %s takes the fallback", body)
		}
		checkSubmissionBody(t, body)
	}
}

// TestSubmissionSeeds runs the fuzz seeds in every test run and pins which
// path each takes: a canonical body that fell to the decoder would still
// be right, only slow, so no other check would notice.
func TestSubmissionSeeds(t *testing.T) {
	for _, seeds := range []struct {
		bodies []string
		hand   bool
	}{{handSeeds, true}, {fallbackSeeds, false}} {
		for _, s := range seeds.bodies {
			checkSubmissionBody(t, []byte(s))
			var sub Submission
			if got := parseSubmission([]byte(s), &sub); got != seeds.hand {
				t.Errorf("%q: hand path %v, want %v", s, got, seeds.hand)
			}
		}
	}
}

// TestWireAllocs gates the per-request allocations of both hand-coded
// paths: encoding a verdict allocates nothing but the header value, and
// decoding a canonical body only the submission's own name and slices.
func TestWireAllocs(t *testing.T) {
	v := wireView()
	var buf []byte
	if n := testing.AllocsPerRun(200, func() { buf = appendTicketView(buf[:0], &v) }); n != 0 {
		t.Errorf("appendTicketView: %.1f allocs per verdict, want 0", n)
	}
	var sub Submission
	canonical := []byte(wireBody)
	if n := testing.AllocsPerRun(200, func() {
		if !parseSubmission(canonical, &sub) {
			t.Fatal("canonical body refused")
		}
	}); n > 4 {
		t.Errorf("parseSubmission: %.1f allocs per submission, want ≤ 4", n)
	}
	if raceEnabled {
		return // the pooled buffers below are dropped at random under -race
	}
	w := discardWriter{h: http.Header{}}
	if n := testing.AllocsPerRun(200, func() { writeTicket(w, http.StatusAccepted, &v) }); n > 1 {
		t.Errorf("writeTicket: %.1f allocs per verdict, want ≤ 1", n)
	}
	body := strings.NewReader(wireBody)
	r := postBody(nil)
	r.Body = io.NopCloser(body)
	if n := testing.AllocsPerRun(200, func() {
		body.Reset(wireBody)
		if !decodeBody(w, r, &sub) {
			t.Fatal("canonical body refused")
		}
	}); n > 4 {
		t.Errorf("decodeBody: %.1f allocs per submission, want ≤ 4", n)
	}
}

// TestRunInfoEpochPhase: the /runinfo phase of an open epoch names it, and
// reads idle once the epoch is decided.
func TestRunInfoEpochPhase(t *testing.T) {
	intro := introspect.NewServer(obs.New())
	b := testnet.NewBuilder()
	ms := b.Machines(6, 1<<30)
	for i := 0; i < 5; i++ {
		b.Link(ms[i], ms[5], 0, 24*time.Hour, 8<<20)
	}
	eng, err := New(b.Build("phase"), Options{Config: cfgC4(nil), VirtualClock: true, Intro: intro})
	if err != nil {
		t.Fatal(err)
	}
	phase := func() string {
		rec := httptest.NewRecorder()
		eng.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runinfo", nil))
		var ri struct{ Phase string }
		if err := json.Unmarshal(rec.Body.Bytes(), &ri); err != nil {
			t.Fatal(err)
		}
		return ri.Phase
	}
	if err := eng.Advance(simtime.At(time.Minute)); err != nil {
		t.Fatal(err)
	}
	p, err := eng.Propose(benchSub(0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := phase(), "epoch 1 @ 1m0s (1 submissions)"; got != want {
		t.Errorf("open epoch phase %q, want %q", got, want)
	}
	p.Commit()
	if got := phase(); got != "idle" {
		t.Errorf("phase after commit %q, want idle", got)
	}
}

// TestDecodeBodyReadErrors: a body whose read fails, or that runs past
// maxBodyBytes, draws the answer the decoder gave reading the request
// itself — a value completed before the failure is still accepted.
func TestDecodeBodyReadErrors(t *testing.T) {
	reset := errors.New("connection reset")
	huge := `{"name":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, tc := range []struct {
		name string
		body func() io.Reader
	}{
		{"cut mid-value", func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"sizeBytes": 1, "sour`), iotest.ErrReader(reset))
		}},
		{"cut after the value", func() io.Reader {
			return io.MultiReader(strings.NewReader(wireBody), iotest.ErrReader(reset))
		}},
		{"over the limit", func() io.Reader { return strings.NewReader(huge) }},
	} {
		var want, got Submission
		wantRec, gotRec := httptest.NewRecorder(), httptest.NewRecorder()
		dec := json.NewDecoder(io.LimitReader(tc.body(), maxBodyBytes))
		dec.DisallowUnknownFields()
		wantOK := true
		if err := dec.Decode(&want); err != nil {
			WriteError(wantRec, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			wantOK = false
		}
		r := postBody(nil)
		r.Body = io.NopCloser(tc.body())
		gotOK := decodeBody(gotRec, r, &got)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) || gotRec.Body.String() != wantRec.Body.String() {
			t.Errorf("%s: got %v %+v %q, want %v %+v %q", tc.name, gotOK, got, gotRec.Body, wantOK, want, wantRec.Body)
		}
	}
}
