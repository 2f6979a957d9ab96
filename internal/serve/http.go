package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"geospanner/internal/maintain"
)

// The HTTP+JSON API of spannerd. Every read endpoint pins one epoch for
// the whole request, so a response is internally consistent even while a
// POST /v1/epoch is building the next snapshot.
//
//	GET  /healthz       -> HealthResponse for the current epoch
//	GET  /v1/topology   -> Topology of the current epoch
//	GET  /v1/route?src=A&dst=B -> RouteResponse against the current epoch
//	GET  /v1/stats      -> Stats (cumulative counters)
//	POST /v1/epoch      -> apply an EpochRequest batch; one POST = one epoch
//
// Every error, on every endpoint, is the same envelope:
//
//	{"error": "...", "code": <http status>, "events": [{"index": i, "reason": "..."}]}
//
// where events appears only on batch validation failures and names every
// invalid record, not just the first.

// HealthResponse is the wire form of a live health report.
type HealthResponse struct {
	Epoch              uint64 `json:"epoch"`
	Healthy            bool   `json:"healthy"`
	Mode               string `json:"mode"`
	Alive              int    `json:"alive"`
	Dead               int    `json:"dead"`
	Uncovered          int    `json:"uncovered"`
	Components         int    `json:"components"`
	CompleteComponents int    `json:"complete_components"`
	// Degraded is true while the service is read-only after persistent
	// storage failure; DegradedReason carries the error that flipped it.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Summary        string `json:"summary"`
}

// RouteResponse is the wire form of a route query answer. Failures use the
// ErrorResponse envelope instead.
type RouteResponse struct {
	Epoch  uint64  `json:"epoch"`
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Path   []int   `json:"path"`
	Hops   int     `json:"hops"`
	Length float64 `json:"length"`
}

// WireEvent is the canonical encoded churn event (maintain.WireEvent): the
// element type of EpochRequest batches, WAL record payloads, and replay
// schedules alike.
type WireEvent = maintain.WireEvent

// EpochRequest is the body of POST /v1/epoch.
type EpochRequest struct {
	Events []WireEvent `json:"events"`
}

// EpochResponse summarizes the applied epoch.
type EpochResponse struct {
	Epoch       uint64 `json:"epoch"`
	Events      int    `json:"events"`
	Applied     int    `json:"applied"`
	Rejected    int    `json:"rejected"`
	RoleChanges int    `json:"role_changes"`
	Mode        string `json:"mode"`
	WallMS      int64  `json:"wall_ms"`
}

// ErrorResponse is the uniform error envelope of every endpoint.
type ErrorResponse struct {
	// Error is the human-readable failure summary.
	Error string `json:"error"`
	// Code echoes the HTTP status, so the envelope is self-describing when
	// it travels beyond the response (logs, traces).
	Code int `json:"code"`
	// Events names each invalid record of a rejected batch (index +
	// reason); empty outside batch validation failures.
	Events []maintain.EventError `json:"events,omitempty"`
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/topology", s.handleTopology)
	mux.HandleFunc("GET /v1/route", s.handleRoute)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/epoch", s.handleEpoch)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError sends the uniform envelope; a *maintain.ValidationError cause
// carries its per-event details into the body.
func writeError(w http.ResponseWriter, status int, err error) {
	resp := ErrorResponse{Error: err.Error(), Code: status}
	var ve *maintain.ValidationError
	if errors.As(err, &ve) {
		resp.Events = ve.Events
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	ep := s.Current()
	report := s.health(ep)
	writeJSON(w, http.StatusOK, HealthResponse{
		Epoch:              ep.Seq,
		Healthy:            report.Healthy(),
		Mode:               string(report.Mode),
		Alive:              ep.Topology().Alive,
		Dead:               len(report.DeadNodes),
		Uncovered:          len(report.UncoveredNodes),
		Components:         len(report.Components),
		CompleteComponents: report.CompleteComponents(),
		Degraded:           report.Degraded,
		DegradedReason:     report.DegradedReason,
		Summary:            report.String(),
	})
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Topology())
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	src, err1 := strconv.Atoi(r.URL.Query().Get("src"))
	dst, err2 := strconv.Atoi(r.URL.Query().Get("dst"))
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, errors.New("src and dst must be integer node IDs"))
		return
	}
	ep := s.Current()
	path, err := ep.Route(src, dst)
	s.routeQueries.Add(1)
	if err != nil {
		s.routeFailures.Add(1)
		status := http.StatusUnprocessableEntity
		if errors.Is(err, ErrNodeDown) {
			status = http.StatusGone
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, RouteResponse{
		Epoch: ep.Seq, Src: src, Dst: dst,
		Path: path, Hops: len(path) - 1, Length: ep.PathLength(path),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// maxEpochBody caps the body of POST /v1/epoch. 16 MiB is far above one
// ~80-byte move event per node of a 100k-node network.
const maxEpochBody = 16 << 20

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	var req EpochRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEpochBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body over %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, errors.New("bad request body: "+err.Error()))
		return
	}
	// The error, when non-nil, is a *maintain.ValidationError naming every
	// invalid record.
	events, err := maintain.DecodeWire(req.Events)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ep, err := s.Apply(events)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrDegraded) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, EpochResponse{
		Epoch:       ep.Seq,
		Events:      ep.Stats.Batch.Events,
		Applied:     ep.Stats.Batch.Applied,
		Rejected:    ep.Stats.Batch.Rejected,
		RoleChanges: ep.Stats.Batch.RoleChanges,
		Mode:        ep.Stats.Mode(),
		WallMS:      ep.Stats.WallNS / 1e6,
	})
}
