package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{Name: "request", ID: 1, Start: us(0), End: us(100)},
		// Overlapping children cover [10,50) once, not twice.
		{Name: "sys.a", ID: 2, Parent: 1, Start: us(10), End: us(30)},
		{Name: "sys.b", ID: 3, Parent: 1, Start: us(20), End: us(50)},
		// A child running past its parent counts only inside it.
		{Name: "sys.c", ID: 4, Parent: 1, Start: us(90), End: us(120)},
		// A grandchild is covered by its parent, not by the root.
		{Name: "inner", ID: 5, Parent: 3, Start: us(25), End: us(35)},
		{Name: "other", ID: 6, Start: us(0), End: us(40)},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: us(50), 2: us(20), 3: us(20), 4: us(30), 5: us(10), 6: us(40)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	l := tr.lane()
	sp := l.begin("x", 0, tr.newReq())
	sp.end()
	if sp.id() != 0 || len(tr.spans()) != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
}

func TestChromeTraceKeepsParentage(t *testing.T) {
	tr := newTracer()
	l := tr.lane()
	req := tr.newReq()
	root := l.begin("request", 0, req)
	child := l.begin("sys.open", root.id(), req)
	child.end()
	root.end()
	var buf bytes.Buffer
	if err := writeChrome(&buf, tr.spans(), map[string]any{"seed": 1}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 2 || out.OtherData["seed"] != float64(1) {
		t.Fatalf("trace = %+v", out)
	}
	ev := out.TraceEvents[1]
	if ev.Name != "sys.open" || ev.Ph != "X" || ev.Args["parent"] != float64(root.id()) ||
		ev.Args["req"] != float64(req) {
		t.Errorf("child event = %+v", ev)
	}
}
