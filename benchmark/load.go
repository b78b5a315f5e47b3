package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// sample is one completed request as its client saw it.
type sample struct {
	end  time.Time
	lat  time.Duration
	ok   bool // 200 and not partial
	path int  // which of the phase's paths it was sent to
}

// kept is a response body retained for checking after the windows, so
// parsing and the reference scan never compete with the timed requests.
type kept struct {
	req  int // index into inputs.bodies
	path int
	lat  time.Duration
	body []byte
}

// clientLog is what one closed-loop client recorded.
type clientLog struct {
	samples  []sample
	kept     []kept
	shed     int // 429
	partials int
}

var partialMark = []byte(`"partial":true`)

// newClient returns an HTTP client that holds one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// post sends one request and reads the whole reply into buf.
func post(hc *http.Client, url string, body []byte, buf *bytes.Buffer) (status int, err error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// runClient is one closed-loop reader: it sends seq's requests in order
// from position from, each only after the previous reply has been read,
// until stop closes, taking the urls in turn. Every keepEvery-th reply is
// retained.
func runClient(urls []string, in *inputs, seq []int, from, keepEvery int, stop <-chan struct{}) *clientLog {
	hc := newClient()
	defer hc.CloseIdleConnections()
	log := &clientLog{samples: make([]sample, 0, 1<<16)}
	var buf bytes.Buffer
	for n := from; ; n++ {
		select {
		case <-stop:
			return log
		default:
		}
		req, path := seq[n%len(seq)], n%len(urls)
		begin := time.Now()
		status, err := post(hc, urls[path], in.bodies[req], &buf)
		end := time.Now()
		partial := bytes.Contains(buf.Bytes(), partialMark)
		if status == http.StatusTooManyRequests {
			log.shed++
		}
		if partial {
			log.partials++
		}
		log.samples = append(log.samples, sample{end: end, lat: end.Sub(begin), ok: err == nil && status == http.StatusOK && !partial, path: path})
		if (n/len(urls))%keepEvery == 0 && err == nil && status == http.StatusOK {
			log.kept = append(log.kept, kept{req: req, path: path, lat: end.Sub(begin), body: append([]byte(nil), buf.Bytes()...)})
		}
	}
}

// writeLog is what the paced writer recorded.
type writeLog struct {
	acks   []time.Duration // due time -> 202 read
	late   []time.Duration // due time -> actually sent
	failed int
	sent   int
}

// runWriter posts writes on an open-loop schedule, one every `every`, so
// the write load is the same whatever the read side does.
// A write is timed from when it was due, and how late it left is kept.
func runWriter(url string, writes [][]byte, every time.Duration, stop <-chan struct{}) *writeLog {
	hc := newClient()
	defer hc.CloseIdleConnections()
	log := &writeLog{}
	var buf bytes.Buffer
	start := time.Now()
	for i := range writes {
		due := start.Add(time.Duration(i) * every)
		select {
		case <-stop:
			return log
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		status, err := post(hc, url+"/v1/edges", writes[i], &buf)
		log.sent++
		if err != nil || status != http.StatusAccepted {
			log.failed++
			continue
		}
		log.acks = append(log.acks, time.Since(due))
		log.late = append(log.late, sent.Sub(due))
	}
	return log
}

// load is one driven phase: all clients (and the writer, when the
// workload has one) run from start until stop.
type load struct {
	clients []*clientLog
	writes  *writeLog
}

// drive runs the workload's clients while during runs on the calling
// goroutine, then stops them and returns their logs. Each client sends to
// the paths in turn, so two paths are measured over the same seconds. The
// writer continues from the first write body no earlier phase sent.
func drive(s *stack, w workload, p profile, in *inputs, paths []string, keepEvery int, during func()) *load {
	urls := make([]string, len(paths))
	for i, path := range paths {
		urls[i] = s.url + path
	}
	stop := make(chan struct{})
	out := &load{clients: make([]*clientLog, w.Clients)}
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out.clients[c] = runClient(urls, in, in.seqs[c], in.next[c], keepEvery, stop)
		}(c)
	}
	if w.Ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.writes = runWriter(s.url, in.writes[in.written:], p.WriteEvery, stop)
		}()
	}
	during()
	close(stop)
	wg.Wait()
	for c, log := range out.clients {
		in.next[c] += len(log.samples)
	}
	if out.writes != nil {
		in.written += out.writes.sent
	}
	return out
}

// quantile returns the q-quantile of sorted (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is (max-min)/median, the run-internal repeatability printed
// beside every end-to-end value.
func spread(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	if m := median(v); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

// quartileSpread is the distance between the first and third quartile
// over the median, the quartiles taken as Python's statistics.quantiles
// (exclusive method) takes them.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	if m := median(s); len(s) > 1 && m != 0 {
		return (at(0.75) - at(0.25)) / m
	}
	return 0
}

func durMedian(d []time.Duration, unit time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / float64(unit)
	}
	return median(v)
}

// latenciesMs returns the sorted latencies, in ms, of the successful
// samples sent to the given path that ended in [from, to).
func (l *load) latenciesMs(from, to time.Time, path int) (lat []float64, attempted, failed int) {
	for _, c := range l.clients {
		for _, s := range c.samples {
			if s.path != path || s.end.Before(from) || !s.end.Before(to) {
				continue
			}
			attempted++
			if !s.ok {
				failed++
				continue
			}
			lat = append(lat, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(lat)
	return lat, attempted, failed
}
