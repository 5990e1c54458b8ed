package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"datastaging/internal/obs"
	"datastaging/internal/serve"
	"datastaging/internal/simtime"
	"datastaging/internal/workload"
)

// TestTicketEncodeSharded: a two-shard replay of an oversubscribed stream,
// posted as serve.Client would post it, answers every POST and every
// final GET /v1/requests/{id} with exactly the bytes serve.WriteJSON
// writes for the service's view of that ticket — local and cross-shard
// tickets, admitted and rejected.
func TestTicketEncodeSharded(t *testing.T) {
	const n = 16
	sc := meshNet(t, n, 5e5)
	svc, err := New(sc, blockPlan(t, sc, n, 2), serve.Options{
		Config: cfgShard(obs.New()), VirtualClock: true, QueueCap: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.Builtin("cohort")
	if err != nil {
		t.Fatal(err)
	}
	spec.Phases = append([]workload.Phase(nil), spec.Phases...)
	for i := range spec.Phases {
		spec.Phases[i].PerHour *= 4
	}
	arrivals, err := spec.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	same := func(what string, got *httptest.ResponseRecorder, id string) serve.TicketView {
		t.Helper()
		v, ok := svc.TicketView(id)
		if !ok {
			t.Fatalf("%s: no ticket %q (%d %s)", what, id, got.Code, got.Body)
		}
		want := httptest.NewRecorder()
		serve.WriteJSON(want, got.Code, v)
		if got.Body.String() != want.Body.String() {
			t.Fatalf("%s %s:\ngot\n%s\nwant\n%s", what, id, got.Body, want.Body)
		}
		return v
	}
	var ids []string
	var now simtime.Instant
	for _, a := range arrivals {
		if a.At > now {
			if err := svc.Advance(a.At); err != nil {
				t.Fatal(err)
			}
			now = a.At
		}
		body, err := json.Marshal(serve.SubmissionFromArrival(a))
		if err != nil {
			t.Fatal(err)
		}
		post := httptest.NewRecorder()
		h.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(body)))
		if post.Code != http.StatusAccepted {
			t.Fatalf("POST %s: %d %s", body, post.Code, post.Body)
		}
		id := strings.TrimPrefix(post.Header().Get("Location"), "/v1/requests/")
		same("POST", post, id)
		ids = append(ids, id)
	}
	if err := svc.Advance(now); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, id := range ids {
		get := httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/v1/requests/"+id, nil))
		v := same("GET", get, id)
		kinds[string(v.Status)]++
		if strings.HasPrefix(id, "x-") {
			kinds["cross"]++
		}
	}
	t.Logf("%d tickets: %v", len(ids), kinds)
	for _, k := range []string{"admitted", "rejected", "cross"} {
		if kinds[k] == 0 {
			t.Errorf("no %s ticket: the stream does not cover what the check is for", k)
		}
	}
}
