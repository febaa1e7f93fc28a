package main

import (
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Parent indexes the span
// list the span belongs to (-1 for a root); spans of one lane nest
// properly, so a span's children lie inside it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rank   int    `json:"rank"`
	Lane   int    `json:"lane"`
}

// tracer collects the spans and counters of one traced repetition in
// memory. Each lane belongs to one goroutine at a time (a rank's step
// loop, the farm's scheduling goroutine, one transport), so recording
// takes no lock.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	lanes []*lane
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// lane opens a new lane. Primary lanes are the goroutines the result
// waits on; trace.unaccounted_frac measures how much of their time no
// span covers.
func (t *tracer) lane(rank int, primary bool) *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, id: len(t.lanes), rank: rank, primary: primary, counts: map[string]float64{}}
	t.lanes = append(t.lanes, l)
	return l
}

// collect merges every lane into one span list (re-basing parent
// indexes) and sums the counters. Call it once every lane's goroutine
// has finished.
func (t *tracer) collect() ([]span, map[string]float64, []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var spans []span
	counts := map[string]float64{}
	var primary []int
	for _, l := range t.lanes {
		base := len(spans)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			spans = append(spans, s)
		}
		for k, v := range l.counts {
			counts[k] += v
		}
		if l.primary {
			primary = append(primary, l.id)
		}
	}
	return spans, counts, primary
}

// lane is one goroutine's span stack.
type lane struct {
	t       *tracer
	id      int
	rank    int
	primary bool
	spans   []span
	stack   []int
	counts  map[string]float64
}

// begin opens a span under the lane's innermost open span.
func (l *lane) begin(name string) int {
	i := len(l.spans)
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: l.t.now(), Parent: parent, Rank: l.rank, Lane: l.id})
	l.stack = append(l.stack, i)
	return i
}

// end closes the span begin returned, which must be the innermost one.
func (l *lane) end(i int) {
	l.spans[i].End = l.t.now()
	l.stack = l.stack[:len(l.stack)-1]
}

// add bumps a counter.
func (l *lane) add(name string, v float64) { l.counts[name] += v }
