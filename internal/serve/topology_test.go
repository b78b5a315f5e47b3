package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// stubStatusErr mimics cluster's membership errors: an error carrying
// its HTTP status, surfaced through the StatusCoder upgrade.
type stubStatusErr struct {
	msg  string
	code int
}

func (e *stubStatusErr) Error() string   { return e.msg }
func (e *stubStatusErr) HTTPStatus() int { return e.code }

// stubTopology is a Ranker that also manages membership, scripting the
// cluster router's join/leave surface for handler tests.
type stubTopology struct {
	version  uint64
	joins    []string
	leaves   []string
	joinErr  error
	leaveErr error
}

func (s *stubTopology) RankTopK(ctx context.Context, n *query.Node, k int) (*shard.Result, error) {
	return &shard.Result{Version: 1}, nil
}
func (s *stubTopology) SnapshotVersion() uint64        { return 1 }
func (s *stubTopology) NumShards() int                 { return 2 }
func (s *stubTopology) ShardStats() []shard.ShardStats { return nil }

func (s *stubTopology) Join(ri int, addr string) error {
	if s.joinErr != nil {
		return s.joinErr
	}
	s.joins = append(s.joins, fmt.Sprintf("%d/%s", ri, addr))
	s.version++
	return nil
}

func (s *stubTopology) Leave(addr string) error {
	if s.leaveErr != nil {
		return s.leaveErr
	}
	s.leaves = append(s.leaves, addr)
	s.version++
	return nil
}

func (s *stubTopology) TopologyVersion() uint64 { return s.version }

// postTopology posts a raw JSON body to a topology endpoint and decodes
// whichever of the ack/error shapes came back.
func postTopology(t *testing.T, ts *httptest.Server, path, body string) (topologyResponse, ErrorResponse, int) {
	t.Helper()
	res, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer res.Body.Close()
	var ack topologyResponse
	var fail ErrorResponse
	if res.StatusCode < 400 {
		if err := json.NewDecoder(res.Body).Decode(&ack); err != nil {
			t.Fatalf("decode %s ack: %v", path, err)
		}
	} else {
		if err := json.NewDecoder(res.Body).Decode(&fail); err != nil {
			t.Fatalf("decode %s error: %v", path, err)
		}
	}
	return ack, fail, res.StatusCode
}

// TestTopologyJoinLeave drives the happy path: join acks 202 with
// status "probation" (admission is asynchronous), leave acks 200 with
// "left", and both carry the bumped topology version that /v1/stats
// then reports.
func TestTopologyJoinLeave(t *testing.T) {
	stub := &stubTopology{version: 3}
	_, _, _, ts := newTestServer(t, func(cfg *Config) { cfg.Ranker = stub })

	ack, _, code := postTopology(t, ts, "/v1/topology/join", `{"range": 1, "node": "h:9002"}`)
	if code != http.StatusAccepted {
		t.Fatalf("join status = %d, want 202", code)
	}
	if ack.Status != "probation" || ack.Node != "h:9002" || ack.Range == nil || *ack.Range != 1 {
		t.Fatalf("join ack = %+v, want probation h:9002 range 1", ack)
	}
	if ack.TopologyVersion != 4 {
		t.Fatalf("join ack version = %d, want 4", ack.TopologyVersion)
	}
	if len(stub.joins) != 1 || stub.joins[0] != "1/h:9002" {
		t.Fatalf("manager saw joins %v", stub.joins)
	}

	ack, _, code = postTopology(t, ts, "/v1/topology/leave", `{"node": "h:9002"}`)
	if code != http.StatusOK {
		t.Fatalf("leave status = %d, want 200", code)
	}
	if ack.Status != "left" || ack.Node != "h:9002" {
		t.Fatalf("leave ack = %+v, want left h:9002", ack)
	}
	if ack.TopologyVersion != 5 {
		t.Fatalf("leave ack version = %d, want 5", ack.TopologyVersion)
	}

	stats := getStats(t, ts)
	if stats.TopologyVersion != 5 {
		t.Fatalf("stats.TopologyVersion = %d, want 5", stats.TopologyVersion)
	}

	// Range 0 is a valid range: the join ack must still carry it.
	ack, _, code = postTopology(t, ts, "/v1/topology/join", `{"range": 0, "node": "h:9003"}`)
	if code != http.StatusAccepted || ack.Range == nil || *ack.Range != 0 {
		t.Fatalf("join to range 0 ack = %+v (status %d), want explicit range 0", ack, code)
	}
}

// TestTopologyRejectsBadRequests pins the refusal surface: non-POST,
// bodies missing node or range, and malformed JSON all answer 4xx
// without reaching the manager.
func TestTopologyRejectsBadRequests(t *testing.T) {
	stub := &stubTopology{}
	_, _, _, ts := newTestServer(t, func(cfg *Config) { cfg.Ranker = stub })

	res, err := http.Get(ts.URL + "/v1/topology/join")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET join status = %d, want 405", res.StatusCode)
	}

	for _, tc := range []struct {
		path, body string
	}{
		{"/v1/topology/join", `{"range": 0}`},    // no node
		{"/v1/topology/join", `{"node": "h:1"}`}, // no range
		{"/v1/topology/join", `{not json`},       // malformed
		{"/v1/topology/leave", `{}`},             // no node
		{"/v1/topology/leave", `{not json`},      // malformed
	} {
		_, fail, code := postTopology(t, ts, tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Fatalf("POST %s %q status = %d, want 400", tc.path, tc.body, code)
		}
		if fail.Error == "" {
			t.Fatalf("POST %s %q: empty error body", tc.path, tc.body)
		}
	}
	if len(stub.joins)+len(stub.leaves) != 0 {
		t.Fatalf("rejected requests reached the manager: %v %v", stub.joins, stub.leaves)
	}
}

// TestTopologyErrorStatusMapping asserts membership errors surface with
// the status their StatusCoder carries — and plain errors fall back to
// 400 — so operators can tell "no such replica" from "would empty the
// range" without parsing messages.
func TestTopologyErrorStatusMapping(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"unknown replica", &stubStatusErr{"cluster: unknown replica", 404}, http.StatusNotFound},
		{"duplicate replica", &stubStatusErr{"cluster: duplicate replica", 409}, http.StatusConflict},
		{"plain error", fmt.Errorf("cluster: something else"), http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := &stubTopology{joinErr: tc.err, leaveErr: tc.err}
			_, _, _, ts := newTestServer(t, func(cfg *Config) { cfg.Ranker = stub })
			_, fail, code := postTopology(t, ts, "/v1/topology/join", `{"range": 0, "node": "h:1"}`)
			if code != tc.want {
				t.Fatalf("join status = %d, want %d", code, tc.want)
			}
			if fail.Error != tc.err.Error() {
				t.Fatalf("join error = %q, want %q", fail.Error, tc.err.Error())
			}
			if _, _, code := postTopology(t, ts, "/v1/topology/leave", `{"node": "h:1"}`); code != tc.want {
				t.Fatalf("leave status = %d, want %d", code, tc.want)
			}
		})
	}
}

// TestTopologyStaticRanker: a server ranking through something that
// does not manage membership (the in-process engine) answers 501, and
// /v1/stats omits the topology version rather than reporting a fake 0.
func TestTopologyStaticRanker(t *testing.T) {
	_, _, _, ts := newTestServer(t, nil) // default in-process engine
	for _, path := range []string{"/v1/topology/join", "/v1/topology/leave"} {
		_, fail, code := postTopology(t, ts, path, `{"range": 0, "node": "h:1"}`)
		if code != http.StatusNotImplemented {
			t.Fatalf("POST %s status = %d, want 501", path, code)
		}
		if fail.Error == "" {
			t.Fatalf("POST %s: empty error body", path)
		}
	}
	if stats := getStats(t, ts); stats.TopologyVersion != 0 {
		t.Fatalf("static stats.TopologyVersion = %d, want 0", stats.TopologyVersion)
	}
}
