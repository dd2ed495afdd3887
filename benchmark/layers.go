package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/verified-os/vnros/internal/obs"
)

// metricDef is one reported metric: its name, unit and which direction
// is better ("lower" or "higher").
type metricDef struct{ name, unit, better string }

// endToEnd lists the end-to-end metrics, measured with obs off and no
// spans recorded.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"req_p50_us", "us", "lower"},
	{"req_p99_us", "us", "lower"},
	{"req_per_s", "req/s", "higher"},
	{"recover_s", "s", "lower"},
	{"verify_s", "s", "lower"},
	{"mem_peak_mb", "MiB", "lower"},
}

// verifierModules is the ledger's module set; each gets a
// verifier.module.<m>_s metric ("/" in a module name becomes ".").
var verifierModules = []string{
	"core", "dev", "diff", "fs", "hw/machine", "hw/mem", "hw/mmu", "lin",
	"marshal", "mm", "netstack", "nr", "pcache", "proc", "pt", "relwork",
	"sched", "spec/sm", "sys", "ulib", "usr", "verifier", "wal", "walshard",
}

// walShards is how many per-shard WAL commit metrics are reported (the
// sharded workloads boot two fs shards).
const walShards = 2

// perLayer lists the per-layer metrics of the traced pass, in output
// order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// sys: the boundary, submission ring and contract checker, timed
		// by the benchmark's spans around each call.
		{"sys.submit_us.p50", "us", "lower"}, {"sys.wait_us.p50", "us", "lower"}, {"sys.wait_us.p99", "us", "lower"},
		{"sys.open_us.p50", "us", "lower"}, {"sys.close_us.p50", "us", "lower"},
		{"sys.pread_us.p50", "us", "lower"}, {"sys.pread_us.p99", "us", "lower"},
		{"sys.preadmap_us.p50", "us", "lower"}, {"sys.write_us.p50", "us", "lower"},
		{"sys.socksend_us.p50", "us", "lower"}, {"sys.sockrecv_us.p50", "us", "lower"}, {"sys.sockrecv_us.p99", "us", "lower"},
		{"client.self_us.p50", "us", "lower"},
		{"syscall.batch_size.mean", "count", "higher"},
		{"ring.wait_parks_per_req", "ratio", "lower"}, {"ring.wait_spins", "count", "lower"},
		// nr
		{"nr.batch_size.mean", "count", "higher"},
		{"nr.combine_latency.p50", "us", "lower"}, {"nr.combine_latency.p99", "us", "lower"},
		{"nr.log_full_stalls", "count", "lower"}, {"nr.read_sync_frac", "ratio", "lower"},
		// core
		{"core.boot_s", "s", "lower"},
		// pcache
		{"pcache.hit_ratio", "ratio", "higher"}, {"pcache.lookups", "count", "higher"},
		{"pcache.evictions_per_req", "ratio", "lower"}, {"pcache.invalidations_per_req", "ratio", "lower"},
		// fs
		{"fs.read_latency.p50", "us", "lower"}, {"fs.write_latency.p50", "us", "lower"}, {"fs.meta_ops_per_req", "ratio", "lower"},
		// wal
		{"wal.commits_per_req", "ratio", "lower"}, {"wal.commit_records.mean", "count", "higher"},
		{"wal.flush_latency.p50", "us", "lower"}, {"wal.flush_latency.p99", "us", "lower"},
		{"wal.checkpoints_per_kreq", "ratio", "lower"},
		{"wal.replayed_records", "count", "lower"}, {"wal.round_rollbacks", "count", "lower"},
		// walshard
		{"wal.shard.rounds_per_req", "ratio", "lower"}, {"wal.shard.checkpoints_per_kreq", "ratio", "lower"},
	}
	for i := 0; i < walShards; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("wal.shard.commit.fs%d.p99", i), "us", "lower"})
	}
	defs = append(defs,
		// pt
		metricDef{"pt.map_latency.p50", "us", "lower"}, metricDef{"pt.unmap_latency.p50", "us", "lower"},
		// netstack and dev
		metricDef{"net.recv_parks_per_msg", "ratio", "lower"}, metricDef{"net.tx_frames_per_msg", "ratio", "lower"},
		metricDef{"net.rx_drops", "count", "lower"},
		// verifier
		metricDef{"verifier.vc_max_s", "s", "lower"}, metricDef{"verifier.serial_s", "s", "lower"},
		metricDef{"verifier.speedup", "x", "higher"},
	)
	for _, m := range verifierModules {
		defs = append(defs, metricDef{"verifier.module." + moduleMetric(m) + "_s", "s", "lower"})
	}
	defs = append(defs, metricDef{"fail_frac", "ratio", "lower"})
	for _, m := range endToEnd {
		// traced minus untraced: better the way the metric itself is
		defs = append(defs, metricDef{"trace_overhead." + m.name, m.unit, m.better})
	}
	return defs
}()

// obsDelta is the change in the kernel's obs metrics over one phase.
type obsDelta struct{ before, after obs.Snapshot }

func (d obsDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func histDelta(before, after obs.HistSnapshot) obs.HistSnapshot {
	h := after
	h.Count -= before.Count
	h.Sum -= before.Sum
	for i := range h.Buckets {
		h.Buckets[i] -= before.Buckets[i]
	}
	return h
}

func (d obsDelta) hist(name string) obs.HistSnapshot {
	return histDelta(d.before.Hists[name], d.after.Hists[name])
}

// opHist is the latency histogram delta of one slot of an OpStats family.
func (d obsDelta) opHist(family string, slot uint64) obs.HistSnapshot {
	find := func(s obs.Snapshot) obs.HistSnapshot {
		for _, o := range s.Ops[family] {
			if o.Op == slot {
				return o.Latency
			}
		}
		return obs.HistSnapshot{}
	}
	return histDelta(find(d.before), find(d.after))
}

// histMicros is a latency histogram's q-quantile in microseconds (the
// obs histograms are log2-bucketed: within 2× of the true value).
func histMicros(h obs.HistSnapshot, q float64) float64 {
	return float64(h.Percentile(q)) / 1e3
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerInput is what the traced pass observed.
type layerInput struct {
	timed    obsDelta // the timed phase
	recovery obsDelta // the recover reboots
	reboots  float64
	spans    []span
	requests float64 // completed requests (for verify: VCs)
	vcRuns   []vcRun
	ops      opCount
}

// layerMetrics computes every per-layer metric; notes records each
// percentile refused for too few samples (reported as 0).
func layerMetrics(in layerInput) (vals map[string]float64, notes []string) {
	vals = make(map[string]float64)
	byName := durationsByName(in.spans)
	// A layer a workload does not call has no spans and reads 0; a
	// percentile with too few samples beyond it is refused and noted.
	spanPct := func(metric, name string, q float64) {
		ds := byName[name]
		v, err := percentile(micros(ds), q)
		if err != nil && len(ds) > 0 {
			notes = append(notes, fmt.Sprintf("%s: span %s: %v", metric, name, err))
		}
		vals[metric] = v
	}
	for _, c := range []struct {
		name string
		q    float64
	}{{"submit", .5}, {"wait", .5}, {"wait", .99}, {"open", .5}, {"close", .5},
		{"pread", .5}, {"pread", .99}, {"preadmap", .5}, {"write", .5},
		{"socksend", .5}, {"sockrecv", .5}, {"sockrecv", .99}} {
		spanPct(fmt.Sprintf("sys.%s_us.p%g", c.name, 100*c.q), "sys."+c.name, c.q)
	}

	// The client's own time inside a request: its span minus the
	// syscalls it made.
	self := selfTimes(in.spans)
	var selfs []time.Duration
	for _, s := range in.spans {
		if s.Parent == 0 && s.Req != 0 {
			selfs = append(selfs, self[s.ID])
		}
	}
	v, err := percentile(micros(selfs), .5)
	if err != nil && len(selfs) > 0 {
		notes = append(notes, "client.self_us.p50: "+err.Error())
	}
	vals["client.self_us.p50"] = v

	t, req := in.timed, in.requests
	vals["syscall.batch_size.mean"] = t.hist("syscall.batch_size").Mean()
	vals["ring.wait_parks_per_req"] = ratio(t.counter("ring.wait_parks"), req)
	vals["ring.wait_spins"] = t.counter("ring.wait_spins")

	vals["nr.batch_size.mean"] = t.hist("nr.batch_size").Mean()
	vals["nr.combine_latency.p50"] = histMicros(t.hist("nr.combine_latency"), .5)
	vals["nr.combine_latency.p99"] = histMicros(t.hist("nr.combine_latency"), .99)
	vals["nr.log_full_stalls"] = t.counter("nr.log_full_stalls")
	fast, sync := t.counter("nr.read_fast"), t.counter("nr.read_sync")
	vals["nr.read_sync_frac"] = ratio(sync, fast+sync)

	vals["core.boot_s"] = median(seconds(byName["core.boot"]))

	hit, miss := t.counter("pcache.hit"), t.counter("pcache.miss")
	vals["pcache.hit_ratio"] = ratio(hit, hit+miss)
	vals["pcache.lookups"] = hit + miss
	vals["pcache.evictions_per_req"] = ratio(t.counter("pcache.evictions"), req)
	vals["pcache.invalidations_per_req"] = ratio(t.counter("pcache.invalidations"), req)

	vals["fs.read_latency.p50"] = histMicros(t.hist("fs.read_latency"), .5)
	vals["fs.write_latency.p50"] = histMicros(t.hist("fs.write_latency"), .5)
	vals["fs.meta_ops_per_req"] = ratio(t.counter("fs.meta_ops"), req)

	vals["wal.commits_per_req"] = ratio(t.counter("wal.commits"), req)
	vals["wal.commit_records.mean"] = t.hist("wal.commit_records").Mean()
	vals["wal.flush_latency.p50"] = histMicros(t.hist("wal.flush_latency"), .5)
	vals["wal.flush_latency.p99"] = histMicros(t.hist("wal.flush_latency"), .99)
	vals["wal.checkpoints_per_kreq"] = ratio(1000*t.counter("wal.checkpoints"), req)
	vals["wal.replayed_records"] = ratio(in.recovery.counter("wal.replayed_records"), in.reboots)
	vals["wal.round_rollbacks"] = ratio(in.recovery.counter("wal.round_rollbacks"), in.reboots)

	vals["wal.shard.rounds_per_req"] = ratio(t.counter("wal.shard.rounds"), req)
	vals["wal.shard.checkpoints_per_kreq"] = ratio(1000*t.counter("wal.shard.checkpoints"), req)
	for i := 0; i < walShards; i++ {
		vals[fmt.Sprintf("wal.shard.commit.fs%d.p99", i)] = histMicros(t.opHist("wal.shard.commit", obs.FsShardSlot(i)), .99)
	}

	vals["pt.map_latency.p50"] = histMicros(t.hist("pt.map_latency"), .5)
	vals["pt.unmap_latency.p50"] = histMicros(t.hist("pt.unmap_latency"), .5)

	vals["net.recv_parks_per_msg"] = ratio(t.counter("net.recv_parks"), req)
	vals["net.tx_frames_per_msg"] = ratio(t.counter("net.tx_frames"), req)
	vals["net.rx_drops"] = netRxDrops(t)

	var maxS, serialS, speedup []float64
	perModule := make(map[string][]float64)
	for _, run := range in.vcRuns {
		maxS = append(maxS, run.max.Seconds())
		serialS = append(serialS, run.serial.Seconds())
		speedup = append(speedup, run.speedup)
		for m, s := range run.modules {
			perModule[m] = append(perModule[m], s)
		}
	}
	vals["verifier.vc_max_s"] = median(maxS)
	vals["verifier.serial_s"] = median(serialS)
	vals["verifier.speedup"] = median(speedup)
	for _, m := range verifierModules {
		vals["verifier.module."+moduleMetric(m)+"_s"] = median(perModule[moduleMetric(m)])
	}
	vals["fail_frac"] = in.ops.failFrac()
	return vals, notes
}

// netRxDrops sums every net.rx_drop_* counter's delta.
func netRxDrops(d obsDelta) float64 {
	var sum float64
	for name := range d.after.Counters {
		if strings.HasPrefix(name, "net.rx_drop_") {
			sum += d.counter(name)
		}
	}
	return sum
}
