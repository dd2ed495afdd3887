package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	vnros "github.com/verified-os/vnros"
)

func TestDurableRefusedBatchCountsAsFailed(t *testing.T) {
	s, init, err := boot(durableConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]byte, durPagesPerFile*pageSize)
	d := &durable{sys: s, init: init, fds: [][]vnros.FD{{vnros.FD(99)}}, model: [][][]byte{{append([]byte(nil), orig...)}}}
	var ops opCount
	d.request(0, &vnros.Process{Sys: init}, durOp{File: 0, Off: pageSize, Fill: 1}, &ops, nil, 0)
	// Seek and both writes hit a descriptor that is not open.
	if ops.attempted != 4 || ops.failed < 3 {
		t.Fatalf("ops = %+v, want 4 attempted and the seek and writes failed", ops)
	}
	if !bytes.Equal(d.model[0][0], orig) {
		t.Error("a failed batch changed the acknowledged model")
	}
}

func TestFilesrvReadCountsOps(t *testing.T) {
	s, init, err := boot(filesrvConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := startClient(s, init, "reader")
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll([]*client{c}, s)
	err = c.do(func(p *vnros.Process) error {
		data := make([]byte, 2*pageSize)
		fill(data, 42)
		fd, e := p.Sys.Open("/f", vnros.OCreate|vnros.ORdWr)
		if e != vnros.EOK {
			return e
		}
		if _, e := p.Sys.Write(fd, data); e != vnros.EOK {
			return e
		}
		f := &filesrv{}
		buf := make([]byte, pageSize)
		var ops opCount
		// PreadMap, MemRead, PreadUnmap: three ops.
		got, e := f.readPage(p.Sys, fd, pageSize, true, buf, &ops, nil, 0, 0)
		if e != vnros.EOK || !bytes.Equal(got, data[pageSize:]) {
			t.Errorf("mapped read: %v, contents equal %v", e, bytes.Equal(got, data[pageSize:]))
		}
		if ops.attempted != 3 || ops.failed != 0 {
			t.Errorf("after the mapped read ops = %+v, want 3 attempted, 0 failed", ops)
		}
		// A read on a closed descriptor fails.
		if e := p.Sys.Close(fd); e != vnros.EOK {
			return e
		}
		if _, e := f.readPage(p.Sys, fd, 0, false, buf, &ops, nil, 0, 0); e == vnros.EOK {
			t.Error("pread on a closed descriptor succeeded")
		}
		if ops.failed != 1 {
			t.Errorf("ops = %+v, want the closed-descriptor read failed", ops)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSystems([]*vnros.Sys{init, c.p.Sys}, s); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric and
// workload lists equal to what the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s, %s), the program reports %s (%s, %s)",
					kind, i, got[i].Name, got[i].Unit, got[i].Better, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
