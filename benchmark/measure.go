package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rankOf is the 1-based nearest rank of the q-quantile of n samples.
func rankOf(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n))))
}

// percentile returns the q-quantile of sorted by nearest rank. It
// refuses a quantile with fewer than minBeyond samples beyond it, and
// the error states the sample count.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := rankOf(n, q)
	if beyond := max(0, n-rank); beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d samples",
			100*q, minBeyond, beyond, n)
	}
	return sorted[rank-1], nil
}

// micros converts durations to sorted microsecond samples.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// opCount tallies syscalls (or VCs) attempted and failed. Every op that
// returns a non-EOK errno, or whose result fails its check, is failed.
type opCount struct{ attempted, failed int64 }

func (c *opCount) add(o opCount) {
	c.attempted += o.attempted
	c.failed += o.failed
}

// failFrac is failed over attempted; a pass that attempted nothing
// counts as wholly failed.
func (c opCount) failFrac() float64 {
	if c.attempted == 0 {
		return 1
	}
	return float64(c.failed) / float64(c.attempted)
}

// memSampler samples the Go heap in use (objects plus the free space
// of in-use spans, as MemStats.HeapInuse) every memSampleEvery while it
// runs.
type memSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	t0      time.Time
	samples []heapSample
}

type heapSample struct {
	at    time.Duration
	bytes uint64
}

const memSampleEvery = time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), t0: time.Now()}
	probes := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(probes)
		m.samples = append(m.samples, heapSample{at: time.Since(m.t0),
			bytes: probes[0].Value.Uint64() + probes[1].Value.Uint64()})
	}
	read()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return m
}

// finish stops the sampler and returns, in MiB, the median over
// `windows` equal slices of the sampled time of each slice's peak: a
// one-off spike in one slice does not move it.
func (m *memSampler) finish(windows int) float64 {
	close(m.stop)
	m.wg.Wait()
	end := m.samples[len(m.samples)-1].at + 1
	peaks := make([]float64, max(1, windows))
	for _, s := range m.samples {
		w := int(int64(s.at) * int64(len(peaks)) / int64(end))
		peaks[w] = max(peaks[w], float64(s.bytes)/(1<<20))
	}
	return median(peaks)
}

// window is one slice of a timed phase's requests.
type window struct{ p50, p99, perSec float64 }

// minWindow is the fewest requests a window holds: enough that its p99
// has minBeyond samples beyond it.
const minWindow = 100 * minBeyond

// windowStats splits the requests, ordered by start time, into up to
// maxWindows consecutive windows of equal count, each of at least
// minWindow requests, and returns each window's median, p99 and
// throughput. Reporting the median over windows keeps one disturbed
// stretch of the run from moving the result.
func windowStats(samples []sample, elapsed time.Duration, maxWindows int) ([]window, error) {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].at < s[j].at })
	k := max(1, min(maxWindows, len(s)/minWindow))
	var out []window
	for w := 0; w < k; w++ {
		lo, hi := w*len(s)/k, (w+1)*len(s)/k
		ds := make([]time.Duration, 0, hi-lo)
		for _, x := range s[lo:hi] {
			ds = append(ds, x.d)
		}
		lat := micros(ds)
		p50, err50 := percentile(lat, .5)
		p99, err99 := percentile(lat, .99)
		if err := errors.Join(err50, err99); err != nil {
			return nil, err
		}
		end := elapsed
		if hi < len(s) {
			end = s[hi].at
		}
		start := time.Duration(0)
		if w > 0 {
			start = s[lo].at
		}
		out = append(out, window{p50: p50, p99: p99, perSec: float64(hi-lo) / (end - start).Seconds()})
	}
	return out, nil
}

// pick maps f over ws.
func pick(ws []window, f func(window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}
