package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share
// ID; Parent names the span whose interval encloses this one.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Start and End are nanoseconds since the tracer was created (the
	// monotonic clock).
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; writeFile saves them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// add records the interval [start, end) under name for job id.
func (t *tracer) add(id uint64, name, parent string, start, end time.Time) {
	t.addNS(id, name, parent, t.ns(start), t.ns(end))
}

// addNS records an interval given in tracer nanoseconds.
func (t *tracer) addNS(id uint64, name, parent string, start, end int64) {
	s := span{ID: id, Name: name, Parent: parent, Start: start, End: end}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// byJob groups the recorded spans by job ID, then by span name.
func (t *tracer) byJob() map[uint64]map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[uint64]map[string][]span{}
	for _, s := range t.spans {
		m := out[s.ID]
		if m == nil {
			m = map[string][]span{}
			out[s.ID] = m
		}
		m[s.Name] = append(m[s.Name], s)
	}
	return out
}

// writeFile writes the spans as JSON lines to dir/name and returns the
// path.
func (t *tracer) writeFile(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfMS is parent's duration minus the part of its interval that the
// children cover (overlapping children are counted once).
func selfMS(parent span, children []span) float64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return float64(parent.End-parent.Start-covered) / 1e6
}

// within reports whether child's interval lies inside parent's.
func within(child, parent span) bool {
	return child.Start >= parent.Start && child.End <= parent.End
}

// jobHeader carries a job's span ID from the load generator to the
// layers it passes through.
const jobHeader = "X-Perfbench-Job"

type jobIDKey struct{}

// jobID reads the span ID the request carries (0 when it carries none).
func jobID(r *http.Request) uint64 {
	if v, ok := r.Context().Value(jobIDKey{}).(uint64); ok {
		return v
	}
	id, _ := strconv.ParseUint(r.Header.Get(jobHeader), 10, 64)
	return id
}

// spanHandler wraps a layer's http.Handler: while a tracer is installed
// in cur, it records one span per request under name and puts the
// request's job ID into the context, so the layer's outbound calls
// (spanTransport) can carry it on. With none installed it only calls h.
func spanHandler(cur *atomic.Pointer[tracer], name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := cur.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		id := jobID(r)
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), jobIDKey{}, id)))
		tr.add(id, name, parent, start, time.Now())
	})
}

// spanTransport wraps the router's outbound transport: while a tracer is
// installed in cur, it records one span per forwarded request and stamps
// the job ID header the shard's spanHandler reads.
type spanTransport struct {
	cur          *atomic.Pointer[tracer]
	name, parent string
	next         http.RoundTripper
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := t.cur.Load()
	if tr == nil {
		return t.next.RoundTrip(r)
	}
	id := jobID(r)
	r = r.Clone(r.Context())
	r.Header.Set(jobHeader, fmt.Sprint(id))
	start := time.Now()
	resp, err := t.next.RoundTrip(r)
	tr.add(id, t.name, t.parent, start, time.Now())
	return resp, err
}
