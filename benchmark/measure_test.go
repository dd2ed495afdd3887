package main

import (
	"strings"
	"testing"
	"time"

	vnros "github.com/verified-os/vnros"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileRefusesTooFewBeyond(t *testing.T) {
	// 1000 samples leave exactly 10 beyond p99.
	v, err := percentile(ramp(1000), .99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	// 999 leave 9: refused, and the error gives the count.
	_, err = percentile(ramp(999), .99)
	if err == nil {
		t.Fatal("p99 of 999 samples accepted with 9 beyond it")
	}
	if !strings.Contains(err.Error(), "999 samples") || !strings.Contains(err.Error(), "have 9") {
		t.Errorf("refusal %q does not state the sample count", err)
	}
	if _, err := percentile(nil, .5); err == nil {
		t.Error("p50 of no samples accepted")
	}
	if v, err := percentile(ramp(21), .5); err != nil || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
}

func TestWindowStats(t *testing.T) {
	// 3000 requests, one per millisecond; the middle third is slow.
	var s []sample
	for i := 0; i < 3000; i++ {
		d := 100 * time.Microsecond
		if i >= 1000 && i < 2000 {
			d = 10 * time.Millisecond
		}
		s = append(s, sample{at: time.Duration(i) * time.Millisecond, d: d})
	}
	ws, err := windowStats(s, 3*time.Second, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("%d windows, want 3 (each needs %d requests)", len(ws), minWindow)
	}
	if got := median(pick(ws, func(w window) float64 { return w.p99 })); got != 100 {
		t.Errorf("median window p99 = %v us, want 100: one slow window must not move it", got)
	}
	for _, w := range ws {
		if w.perSec < 999 || w.perSec > 1001 {
			t.Errorf("window throughput %v, want 1000/s", w.perSec)
		}
	}
	if _, err := windowStats(s[:999], time.Second, 10); err == nil {
		t.Error("999 requests gave a p99")
	}
}

func TestFailFracCountsFailedOps(t *testing.T) {
	var ops opCount
	call(nil, "sys.x", 0, 0, &ops, func() vnros.Errno { return vnros.EOK })
	call(nil, "sys.x", 0, 0, &ops, func() vnros.Errno { return vnros.EAGAIN })
	call(nil, "sys.x", 0, 0, &ops, func() vnros.Errno { return vnros.EIO })
	if ops.attempted != 3 || ops.failed != 2 {
		t.Fatalf("ops = %+v, want 3 attempted, 2 failed", ops)
	}
	if got := ops.failFrac(); got != 2.0/3 {
		t.Errorf("fail_frac = %v, want 2/3", got)
	}
	if got := (opCount{}).failFrac(); got != 1 {
		t.Errorf("fail_frac with nothing attempted = %v, want 1", got)
	}
}
