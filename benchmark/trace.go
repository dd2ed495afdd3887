package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one request share Req; Parent is the enclosing span's ID
// (0 for a root).
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	ID, Parent uint64
	Req        uint64
	Lane       int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span of a traced pass in memory, one lane per
// caller goroutine so recording takes no lock. A nil *tracer (and the
// nil lanes it hands out) records nothing: the untraced pass pays one
// nil check per span site.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	reqs  atomic.Uint64
	mu    sync.Mutex
	lanes []*lane
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane returns a new span buffer for one goroutine.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, idx: len(t.lanes)}
	t.lanes = append(t.lanes, l)
	return l
}

// newReq returns a fresh request id (0 when not tracing).
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// spans returns every recorded span, ordered by start time.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

type lane struct {
	t     *tracer
	idx   int
	spans []span
}

// spanRef is an open span; end closes it.
type spanRef struct {
	l *lane
	i int
}

// begin opens a span named name under parent (0 for a root) in request
// req, and returns it.
func (l *lane) begin(name string, parent, req uint64) spanRef {
	if l == nil {
		return spanRef{}
	}
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.t.epoch),
		ID: l.t.ids.Add(1), Parent: parent, Req: req, Lane: l.idx})
	return spanRef{l: l, i: len(l.spans) - 1}
}

// record adds a span whose interval was timed elsewhere.
func (l *lane) record(name string, start, end time.Time, parent, req uint64) uint64 {
	if l == nil {
		return 0
	}
	id := l.t.ids.Add(1)
	l.spans = append(l.spans, span{Name: name, Start: start.Sub(l.t.epoch), End: end.Sub(l.t.epoch),
		ID: id, Parent: parent, Req: req, Lane: l.idx})
	return id
}

// id is the span's ID, for use as a child's parent.
func (r spanRef) id() uint64 {
	if r.l == nil {
		return 0
	}
	return r.l.spans[r.i].ID
}

func (r spanRef) end() {
	if r.l != nil {
		r.l.spans[r.i].End = time.Since(r.l.t.epoch)
	}
}

// selfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur := s.Start // everything before cur is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// durationsByName groups span durations by span name.
func durationsByName(spans []span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; timestamps are in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes spans as a Chrome trace-event JSON object, with
// meta under "otherData".
func writeChrome(w io.Writer, spans []span, meta map[string]any) error {
	bw := bufio.NewWriter(w)
	head, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\"traceEvents\":[\n", head)
	for i, s := range spans {
		ev, err := json.Marshal(chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteString(",\n")
		}
		bw.Write(ev)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
