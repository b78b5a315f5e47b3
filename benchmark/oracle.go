package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/obs"
)

// answer, queryReply and batchReply are the parts of the serve replies
// the benchmark reads.
type answer struct {
	ID       int32    `json:"id"`
	Distance *float64 `json:"distance"`
}

type stageTrace struct {
	Trace   []obs.StageTiming `json:"trace"`
	TotalMs float64           `json:"total_ms"`
}

type queryReply struct {
	Cached  bool        `json:"cached"`
	Partial bool        `json:"partial"`
	Answers []answer    `json:"answers"`
	Debug   *stageTrace `json:"debug"`
}

type batchReply struct {
	Results []queryReply `json:"results"`
	Debug   *stageTrace  `json:"debug"`
}

// replies decodes a /v1/query or /v1/batch body into one reply per query
// of the request, plus the request's stage trace when it carried one.
func replies(body []byte, batch bool) ([]queryReply, *stageTrace, error) {
	if batch {
		var br batchReply
		if err := json.Unmarshal(body, &br); err != nil {
			return nil, nil, err
		}
		return br.Results, br.Debug, nil
	}
	var qr queryReply
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, nil, err
	}
	return []queryReply{qr}, qr.Debug, nil
}

// oracle checks served answers against the scalar reference: the k
// lowest Model.Distances, first index winning ties, ID for ID and float64
// for float64 (JSON round-trips doubles exactly). References are computed
// at the model's current entity version, so callers check only while no
// write is in flight.
type oracle struct {
	m       *halk.Model
	pool    []poolQuery
	refs    map[int][]answer
	checked int
	bad     int
	first   string // first mismatch, for the report
}

func newOracle(m *halk.Model, pool []poolQuery) *oracle {
	return &oracle{m: m, pool: pool, refs: make(map[int][]answer)}
}

func (o *oracle) reference(q int) []answer {
	if ref, ok := o.refs[q]; ok {
		return ref
	}
	d := o.m.Distances(o.pool[q].Root)
	idx := make([]int32, len(d))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		if d[idx[a]] != d[idx[b]] {
			return d[idx[a]] < d[idx[b]]
		}
		return idx[a] < idx[b]
	})
	ref := make([]answer, min(answerK, len(idx)))
	for i := range ref {
		dist := d[idx[i]]
		ref[i] = answer{ID: idx[i], Distance: &dist}
	}
	o.refs[q] = ref
	return ref
}

// check compares one reply with the reference for pool query q.
func (o *oracle) check(q int, got queryReply) {
	o.checked++
	ref := o.reference(q)
	why := ""
	switch {
	case got.Partial:
		why = "partial"
	case len(got.Answers) != len(ref):
		why = fmt.Sprintf("%d answers, want %d", len(got.Answers), len(ref))
	default:
		for i, a := range got.Answers {
			if a.Distance == nil || a.ID != ref[i].ID || *a.Distance != *ref[i].Distance {
				why = fmt.Sprintf("rank %d: got %+v, want id %d dist %v", i, a, ref[i].ID, *ref[i].Distance)
				break
			}
		}
	}
	if why != "" {
		o.bad++
		if o.first == "" {
			o.first = fmt.Sprintf("%s: %s", o.pool[q].DSL, why)
		}
	}
}

// checkBody checks every query of one reply body; a body that does not
// decode into one reply per query is one bad check.
func (o *oracle) checkBody(in *inputs, req int, body []byte, batch bool) {
	rs, _, err := replies(body, batch)
	if err != nil || len(rs) != len(in.groups[req]) {
		o.checked++
		o.bad++
		return
	}
	for j, r := range rs {
		o.check(in.groups[req][j], r)
	}
}

// checkKept checks the retained replies of a load, until maxRefs
// distinct reference scans have been spent: on the cache workloads every
// 50th reply is thousands of scans' worth.
func (o *oracle) checkKept(l *load, in *inputs, batch bool, maxRefs int) {
	for _, c := range l.clients {
		for _, k := range c.kept {
			if _, known := o.refs[in.groups[k.req][0]]; known || len(o.refs) < maxRefs {
				o.checkBody(in, k.req, k.body, batch)
			}
		}
	}
}

// topUp sends further requests, one at a time and untimed, until at
// least want replies have been checked. It returns how many it sent and
// how many of those were not a 200.
func (o *oracle) topUp(url string, in *inputs, batch bool, want int) (sent, failed int) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	var buf bytes.Buffer
	for req := 0; o.checked < want && req < len(in.bodies); req++ {
		sent++
		if status, err := post(hc, url, in.bodies[req], &buf); err != nil || status != http.StatusOK {
			failed++
			continue
		}
		o.checkBody(in, req, buf.Bytes(), batch)
	}
	return sent, failed
}
