package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"datastaging/internal/obs/introspect"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/simtime"
)

// maxBodyBytes bounds a request body; submissions are small documents.
const maxBodyBytes = 1 << 20

// Pending is the handle of one accepted submission: *Ticket for an engine,
// *shard.Ticket for the sharded service.
type Pending interface {
	ID() string
	// Done is closed once the first verdict is available.
	Done() <-chan struct{}
	View() TicketView
}

// API is everything the /v1 handler set needs from an admission service.
// *Engine is one implementation and *shard.Service the other; T is the
// ticket type each one's Submit returns, inferred at the NewHandler call.
type API[T Pending] interface {
	Submit(Submission) (T, error)
	TicketView(id string) (TicketView, bool)
	// Trail returns the audit records of one known ticket id, oldest first.
	Trail(id string) []lifecycle.Record
	// Audit returns the lifecycle recorder, nil when auditing is off.
	Audit() *lifecycle.Recorder
	Schedule() ScheduleView
	Info() Info
	Advance(simtime.Instant) error
	// Err reports the internal failure that wedged the service, if any; it
	// turns a failed Submit or Advance from the client's fault into a 500.
	Err() error
}

// NewHandler returns the service's HTTP API on a fresh mux:
//
//	POST /v1/requests             submit (body: Submission JSON; ?wait=1
//	                              blocks until the admission epoch decides)
//	GET  /v1/requests/{id}        one ticket's current verdict
//	GET  /v1/requests/{id}/trace  the ticket's full audit trail (404 when
//	                              auditing is off)
//	GET  /v1/schedule             committed schedule + weighted objective
//	GET  /v1/audit                the whole audit log as JSONL
//	POST /v1/advance              move the virtual clock (body: {"to": Instant});
//	                              answers the /v1/info document
//	GET  /v1/info                 service description for clients
//	GET  /healthz                 liveness
//
// A non-nil introspection server has its endpoints (/metrics, /events,
// /runinfo, /debug/pprof/) mounted on the same mux.
func NewHandler[T Pending](svc API[T], intro *introspect.Server) *http.ServeMux {
	h := handler[T]{svc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/requests", h.submit)
	mux.HandleFunc("GET /v1/requests/{id}", h.ticket)
	mux.HandleFunc("GET /v1/requests/{id}/trace", h.trace)
	mux.HandleFunc("GET /v1/schedule", h.schedule)
	mux.HandleFunc("GET /v1/audit", h.audit)
	mux.HandleFunc("POST /v1/advance", h.advance)
	mux.HandleFunc("GET /v1/info", h.info)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if intro != nil {
		intro.Register(mux)
	}
	return mux
}

// Handler returns the engine's HTTP API (see NewHandler).
func (e *Engine) Handler() http.Handler { return NewHandler(e, e.intro) }

type handler[T Pending] struct{ svc API[T] }

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

// WriteError answers with the API's error envelope.
func WriteError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// WriteJSON answers with v encoded the way the API encodes every document.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// fail answers a failed Submit or Advance: shed load is 429 with the same
// backoff hint the backpressure audit record quotes, closed intake 503, and
// anything else the client's fault (400) unless the service itself is
// wedged (500).
func (h handler[T]) fail(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case h.svc.Err() != nil:
		code = http.StatusInternalServerError
	}
	WriteError(w, code, err)
}

func (h handler[T]) submit(w http.ResponseWriter, r *http.Request) {
	var sub Submission
	if !decodeBody(w, r, &sub) {
		return
	}
	t, err := h.svc.Submit(sub)
	if err != nil {
		h.fail(w, err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-t.Done():
		case <-r.Context().Done():
			WriteError(w, http.StatusRequestTimeout, r.Context().Err())
			return
		}
	}
	w.Header().Set("Location", "/v1/requests/"+t.ID())
	WriteJSON(w, http.StatusAccepted, t.View())
}

func (h handler[T]) ticket(w http.ResponseWriter, r *http.Request) {
	v, ok := h.svc.TicketView(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no such request %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

var errAuditOff = errors.New("auditing is disabled on this engine")

func (h handler[T]) trace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !h.svc.Audit().Enabled() {
		WriteError(w, http.StatusNotFound, errAuditOff)
		return
	}
	if _, ok := h.svc.TicketView(id); !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no such request %q", id))
		return
	}
	WriteJSON(w, http.StatusOK, TraceView{ID: id, Records: h.svc.Trail(id)})
}

func (h handler[T]) audit(w http.ResponseWriter, _ *http.Request) {
	rec := h.svc.Audit()
	if !rec.Enabled() {
		WriteError(w, http.StatusNotFound, errAuditOff)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = rec.WriteJSONL(w)
}

func (h handler[T]) schedule(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, h.svc.Schedule())
}

// advanceBody is the POST /v1/advance document.
type advanceBody struct {
	To Instant `json:"to"`
}

func (h handler[T]) advance(w http.ResponseWriter, r *http.Request) {
	var body advanceBody
	if !decodeBody(w, r, &body) {
		return
	}
	if err := h.svc.Advance(body.To.Instant()); err != nil {
		h.fail(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, h.svc.Info())
}

func (h handler[T]) info(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, h.svc.Info())
}
