package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// TopologyManager is the optional Ranker upgrade a live replica
// topology implements (cluster.Router does): replica-set membership
// changes at runtime, exposed over POST /v1/topology/join and
// /v1/topology/leave. Joined replicas enter in probation — they serve
// nothing until the router's identity probe passes — so join answers
// 202 Accepted, not 200.
type TopologyManager interface {
	// Join adds a replica endpoint to entity range ri's replica set in
	// probation. Range boundaries are fixed; only set composition
	// changes.
	Join(ri int, addr string) error
	// Leave removes a replica endpoint from the topology. Removing a
	// range's last replica is refused.
	Leave(addr string) error
	// TopologyVersion is the monotone topology-snapshot version,
	// bumped on every membership change.
	TopologyVersion() uint64
}

// StatusCoder is the error upgrade the topology endpoints map to HTTP:
// membership errors from the cluster package carry their status
// (404 unknown replica, 409 duplicate/last-replica, 400 bad range)
// without serve importing cluster. Errors without one answer 400.
type StatusCoder interface{ HTTPStatus() int }

// topologyRequest is the join/leave body: {"node": "host:port"} plus,
// for join, {"range": N}.
type topologyRequest struct {
	Range *int   `json:"range,omitempty"`
	Node  string `json:"node"`
}

// topologyResponse acknowledges a membership change. Range is a
// pointer so the leave ack (no range) omits it while a join to range 0
// still reports it.
type topologyResponse struct {
	Status          string `json:"status"`
	Node            string `json:"node"`
	Range           *int   `json:"range,omitempty"`
	TopologyVersion uint64 `json:"topology_version"`
}

// topologyManager resolves the Ranker's TopologyManager upgrade, nil
// when the server ranks through something static (in-process engine,
// pre-replica router).
func (s *Server) topologyManager() TopologyManager {
	tm, _ := s.cfg.Ranker.(TopologyManager)
	return tm
}

// topologyErrStatus maps a membership error to its HTTP status.
func topologyErrStatus(err error) int {
	var sc StatusCoder
	if errors.As(err, &sc) {
		return sc.HTTPStatus()
	}
	return http.StatusBadRequest
}

// handleTopologyJoin is POST /v1/topology/join: add a replica to a
// range's set in probation. 202 — admission is asynchronous (the
// identity probe runs off the request path); watch the replica's state
// in /v1/stats.
func (s *Server) handleTopologyJoin(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusAccepted
	defer func() {
		s.metrics.observe("/v1/topology/join", time.Since(start), status >= 400)
	}()
	fail := func(code int, format string, args ...any) {
		status = code
		WriteJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
	}
	tm := s.topologyManager()
	if tm == nil {
		fail(http.StatusNotImplemented, "this server's topology is static (no cluster router)")
		return
	}
	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "POST required")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req topologyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if req.Node == "" {
		fail(http.StatusBadRequest, "\"node\" is required")
		return
	}
	if req.Range == nil {
		fail(http.StatusBadRequest, "\"range\" is required")
		return
	}
	if err := tm.Join(*req.Range, req.Node); err != nil {
		fail(topologyErrStatus(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusAccepted, topologyResponse{
		Status:          "probation",
		Node:            req.Node,
		Range:           req.Range,
		TopologyVersion: tm.TopologyVersion(),
	})
}

// handleTopologyLeave is POST /v1/topology/leave: remove a replica
// from the topology. In-flight gathers may still finish against it;
// new gathers never route to it.
func (s *Server) handleTopologyLeave(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() {
		s.metrics.observe("/v1/topology/leave", time.Since(start), status >= 400)
	}()
	fail := func(code int, format string, args ...any) {
		status = code
		WriteJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
	}
	tm := s.topologyManager()
	if tm == nil {
		fail(http.StatusNotImplemented, "this server's topology is static (no cluster router)")
		return
	}
	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "POST required")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req topologyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if req.Node == "" {
		fail(http.StatusBadRequest, "\"node\" is required")
		return
	}
	if err := tm.Leave(req.Node); err != nil {
		fail(topologyErrStatus(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, topologyResponse{
		Status:          "left",
		Node:            req.Node,
		TopologyVersion: tm.TopologyVersion(),
	})
}
