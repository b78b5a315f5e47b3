package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/halk-kg/halk/internal/ingest"
	"github.com/halk-kg/halk/internal/kg"
)

// EdgeSink accepts validated edge mutations for asynchronous
// application; ingest.Ingester implements it. Wiring one (Config.Edges)
// enables POST /v1/edges.
type EdgeSink interface {
	// Submit durably logs the batch and returns the WAL sequence that
	// owns it. ingest.ErrBacklog means the drainer is behind (mapped to
	// 429); ingest.ErrClosed means the sink is shutting down (503).
	Submit(recs []ingest.Record) (uint64, error)
	// Stats reports ingest progress for /v1/stats.
	Stats() ingest.Stats
}

// edgeSpec is one triple in a POST /v1/edges batch, named by dictionary
// entries (the same names /v1/query uses).
type edgeSpec struct {
	H string `json:"h"`
	R string `json:"r"`
	T string `json:"t"`
}

// edgesRequest is the POST /v1/edges body: triples to assert and
// retract. Every name must already exist in the loaded vocabulary — the
// embedding tables are sized at load, so unknown entities or relations
// are rejected rather than grown.
type edgesRequest struct {
	Add    []edgeSpec `json:"add,omitempty"`
	Remove []edgeSpec `json:"remove,omitempty"`
}

// edgesResponse acknowledges an accepted batch. Acceptance means the
// batch is durably logged (sequence Seq); the fine-tuned embeddings
// appear in query answers after the background drain publishes, at
// which point the served entity version moves past EntityVersion.
type edgesResponse struct {
	Seq           uint64 `json:"seq"`
	Added         int    `json:"added"`
	Removed       int    `json:"removed"`
	EntityVersion uint64 `json:"entity_version"`
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusAccepted
	defer func() {
		s.metrics.observe("/v1/edges", time.Since(start), status >= 400)
	}()
	fail := func(code int, format string, args ...any) {
		status = code
		WriteJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
	}

	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.cfg.Edges == nil {
		fail(http.StatusServiceUnavailable, "edge ingest is not enabled on this server")
		return
	}
	var req edgesRequest
	if code, err := s.decodeBody(w, r, &req); err != nil {
		fail(code, "%v", err)
		return
	}
	if len(req.Add)+len(req.Remove) == 0 {
		fail(http.StatusBadRequest, "empty batch: set \"add\" and/or \"remove\"")
		return
	}

	recs := make([]ingest.Record, 0, len(req.Add)+len(req.Remove))
	appendSpecs := func(specs []edgeSpec, op ingest.Op) error {
		for _, sp := range specs {
			h, ok := s.cfg.Entities.ID(sp.H)
			if !ok {
				return fmt.Errorf("unknown entity %q (the vocabulary is fixed at load)", sp.H)
			}
			rel, ok := s.cfg.Relations.ID(sp.R)
			if !ok {
				return fmt.Errorf("unknown relation %q (the vocabulary is fixed at load)", sp.R)
			}
			t, ok := s.cfg.Entities.ID(sp.T)
			if !ok {
				return fmt.Errorf("unknown entity %q (the vocabulary is fixed at load)", sp.T)
			}
			recs = append(recs, ingest.Record{Op: op, H: kg.EntityID(h), R: kg.RelationID(rel), T: kg.EntityID(t)})
		}
		return nil
	}
	if err := appendSpecs(req.Add, ingest.OpAdd); err != nil {
		fail(http.StatusBadRequest, "%v", err)
		return
	}
	if err := appendSpecs(req.Remove, ingest.OpRemove); err != nil {
		fail(http.StatusBadRequest, "%v", err)
		return
	}

	seq, err := s.cfg.Edges.Submit(recs)
	switch {
	case errors.Is(err, ingest.ErrBacklog):
		w.Header().Set("Retry-After", "1")
		fail(http.StatusTooManyRequests, "ingest backlog is full; retry later")
		return
	case errors.Is(err, ingest.ErrClosed):
		fail(http.StatusServiceUnavailable, "server is draining")
		return
	case err != nil:
		fail(http.StatusInternalServerError, "%v", err)
		return
	}
	WriteJSON(w, http.StatusAccepted, edgesResponse{
		Seq:           seq,
		Added:         len(req.Add),
		Removed:       len(req.Remove),
		EntityVersion: s.cfg.Ranker.SnapshotVersion(),
	})
}

// decodeBody decodes a JSON request body under the server's body-size
// limit. An over-limit body maps to 413, malformed JSON to 400.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("invalid JSON body: %v", err)
	}
	return http.StatusOK, nil
}
