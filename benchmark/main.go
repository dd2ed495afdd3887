// Command benchmark measures vnros end to end and layer by layer.
//
//	benchmark --workload filesrv|durable|echo|verify --seed N --seconds S --trace 0|1
//
// It boots the public vnros API in this one process, drives the
// workload in a closed loop for S seconds, checks every output, and
// prints the metrics as the last line of standard output: with
// --trace 0 the end-to-end metrics (obs off, no spans), with --trace 1
// an untraced pass followed by a traced one (obs on, spans recorded)
// and the per-layer metrics plus the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/obs"
)

// instance is one booted, populated and warmed copy of a workload.
type instance interface {
	// measure drives the closed loop until deadline.
	measure(deadline time.Time, tr *tracer) (phase, error)
	// check runs the workload's output checks after the timed phase.
	check() error
	// crash keeps a copy of the workload's disk and releases its
	// machines, as a crash would.
	crash() error
	// recover boots the crash image, times Boot + Init, and checks the
	// rebooted state.
	recover(tr *tracer) (time.Duration, error)
	close()
}

// phase is what a timed loop produced.
type phase struct {
	samples []sample // one per completed request
	ops     opCount
	elapsed time.Duration
	vcRuns  []vcRun // verify: one per Registry.Run
}

type workload struct {
	name    string
	configs map[string]vnros.Config
	setup   func(seed int64, tr *tracer) (instance, error)
	// vcs selects (see selectVCs) the VCs whose Registry.Run gives
	// verify_s: the proofs of the layers the workload exercises. nil:
	// the workload's timed runs of the whole ledger give it.
	vcs []string
}

var (
	filesrvVCs = []string{"fs", "pcache", "pt", "hw/mmu", "nr",
		"core:pread-refines-sequential-read", "core:read-mapping-refines-copy"}
	durableVCs = []string{"fs", "wal", "walshard", "nr",
		"core:wal-crash-recovery-end-to-end", "core:persistence-across-reboot"}
	echoVCs = []string{"netstack", "dev", "hw/machine", "nr", "core:socket-table-matches-device",
		"core:socket-refines-connection-spec", "core:cross-machine-request-response"}
)

var workloads = []workload{
	{name: "filesrv", configs: map[string]vnros.Config{"kernel": filesrvConfig}, setup: setupFilesrv,
		vcs: filesrvVCs},
	{name: "durable", configs: map[string]vnros.Config{"kernel": durableConfig}, setup: setupDurable,
		vcs: durableVCs},
	{name: "echo", configs: map[string]vnros.Config{"server": echoConfig, "client": echoConfig}, setup: setupEcho,
		vcs: echoVCs},
	{name: "verify", setup: setupVerify},
}

// Repetitions inside one pass; each metric reports their median. The
// reboots and VC runs repeat at least the given count and for at least
// repeatFor, so a short burst of outside load moves few of them.
const (
	setupReps   = 5
	recoverReps = 31
	verifyReps  = 15
	repeatFor   = 3 * time.Second
)

// repeat runs f at least n times and until repeatFor has passed.
func repeat(n int, f func() error) error {
	t0 := time.Now()
	for k := 0; k < n || time.Since(t0) < repeatFor; k++ {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// pass is one measured run of a workload.
type pass struct {
	e2e      map[string]float64
	ops      opCount
	requests int
	windows  int
	elapsed  time.Duration
	setups   []time.Duration
	recovers []time.Duration
	vcRuns   []vcRun
	timed    obsDelta
	recovery obsDelta
	spans    []span
}

// runPass sets the workload up setupReps times (keeping the last),
// measures it for secs seconds, checks its outputs, crashes it and
// reboots the crash image at least recoverReps times, then runs its
// VCs at least verifyReps times (see repeat). traced turns obs on and
// records spans.
func runPass(w workload, seed int64, secs int, traced bool) (*pass, error) {
	var tr *tracer
	obs.Disable()
	if traced {
		tr = newTracer()
		obs.Reset()
		obs.SetSampleRate(1)
		obs.Enable()
		defer obs.Disable()
	}
	p := &pass{}
	var s instance
	for k := 0; k < setupReps; k++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		ns, err := w.setup(seed, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0))
		s = ns
	}
	defer s.close()

	runtime.GC()
	p.timed.before = obs.TakeSnapshot()
	mem := startMemSampler()
	ph, err := s.measure(time.Now().Add(time.Duration(secs)*time.Second), tr)
	memPeak := mem.finish(secs)
	p.timed.after = obs.TakeSnapshot()
	p.ops, p.requests, p.elapsed = ph.ops, len(ph.samples), ph.elapsed
	if err != nil {
		return p, fmt.Errorf("timed phase: %w", err)
	}
	if err := s.check(); err != nil {
		return p, fmt.Errorf("output check: %w", err)
	}

	if err := s.crash(); err != nil {
		return p, fmt.Errorf("crash image: %w", err)
	}
	p.recovery.before = obs.TakeSnapshot()
	err = repeat(recoverReps, func() error {
		runtime.GC()
		d, err := s.recover(tr)
		p.recovers = append(p.recovers, d)
		return err
	})
	if err != nil {
		return p, fmt.Errorf("recover: %w", err)
	}
	p.recovery.after = obs.TakeSnapshot()

	p.vcRuns = ph.vcRuns
	if w.vcs != nil {
		l := tr.lane()
		err := repeat(verifyReps, func() error {
			runtime.GC()
			run, err := runVerifier(ledger(selectVCs(w.vcs)), l)
			p.vcRuns = append(p.vcRuns, run)
			return err
		})
		if err != nil {
			return p, fmt.Errorf("verify: %w", err)
		}
	}
	p.spans = tr.spans()

	ws, err := windowStats(ph.samples, ph.elapsed, secs)
	if err != nil {
		return p, fmt.Errorf("request latency: %w", err)
	}
	p.windows = len(ws)
	var totals []time.Duration
	for _, run := range p.vcRuns {
		totals = append(totals, run.total)
	}
	p.e2e = map[string]float64{
		"setup_s":     median(seconds(p.setups)),
		"req_p50_us":  median(pick(ws, func(w window) float64 { return w.p50 })),
		"req_p99_us":  median(pick(ws, func(w window) float64 { return w.p99 })),
		"req_per_s":   median(pick(ws, func(w window) float64 { return w.perSec })),
		"recover_s":   median(seconds(p.recovers)),
		"verify_s":    median(seconds(totals)),
		"mem_peak_mb": memPeak,
	}
	return p, nil
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "filesrv, durable, echo or verify")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "benchmark"), "directory for records and traces")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *secs, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, secs int, traced bool, outDir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if secs < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	prov := newProvenance(*w, seed, secs, traced)
	fmt.Printf("workload %s: seed %d, %d s timed, %d clients, GOMAXPROCS %d\n",
		w.name, seed, secs, prov.Clients, prov.GOMAXPROCS)

	res := result{Metrics: make(map[string]metric)}
	base, err := runPass(*w, seed, secs, false)
	if base != nil {
		res.Attempted, res.Failed = base.ops.attempted, base.ops.failed
	}
	if err != nil {
		printResult(res)
		return fmt.Errorf("%s: %w", w.name, err)
	}
	report("untraced", base)
	rec := record{Provenance: prov, EndToEnd: base.e2e, Attempted: res.Attempted, Failed: res.Failed}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{base.e2e[m.name], m.unit}
		}
	} else {
		tp, err := runPass(*w, seed, secs, true)
		if tp != nil {
			res.Attempted += tp.ops.attempted
			res.Failed += tp.ops.failed
		}
		if err != nil {
			printResult(res)
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		report("traced", tp)
		vals, notes := layerMetrics(layerInput{timed: tp.timed, recovery: tp.recovery, reboots: float64(len(tp.recovers)), spans: tp.spans,
			requests: float64(tp.requests), vcRuns: tp.vcRuns, ops: tp.ops})
		for _, m := range endToEnd {
			vals["trace_overhead."+m.name] = tp.e2e[m.name] - base.e2e[m.name]
		}
		for _, n := range notes {
			fmt.Println("  refused:", n)
		}
		fmt.Println("per-layer metrics (traced pass; obs is process-global, so on echo the kernel counters sum both machines):")
		for _, m := range perLayer {
			fmt.Printf("  %-36s %14.4f %s\n", m.name, vals[m.name], m.unit)
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		rec.PerLayer, rec.Refused = vals, notes
		rec.Traced = tp.e2e
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		if err := writeTrace(path, tp.spans, prov); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(tp.spans), path)
	}
	res.Correct = true
	rec.Attempted, rec.Failed = res.Attempted, res.Failed
	if err := writeRecord(outDir, rec); err != nil {
		return err
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", pj)
	printResult(res)
	return nil
}

// report prints a pass's end-to-end metrics with their sample counts.
func report(label string, p *pass) {
	fmt.Printf("end-to-end (%s pass):\n", label)
	counts := map[string]string{
		"setup_s":    fmt.Sprintf("median of %d set-ups", len(p.setups)),
		"req_p50_us": fmt.Sprintf("%d requests, median over %d windows", p.requests, p.windows),
		"req_p99_us": fmt.Sprintf("median over %d windows of >= %d requests, >= %d beyond each", p.windows, p.requests/max(1, p.windows), minBeyond),
		"req_per_s":  fmt.Sprintf("%d requests in %.3f s, median over windows", p.requests, p.elapsed.Seconds()),
		"recover_s":  fmt.Sprintf("median of %d reboots", len(p.recovers)),
		"verify_s":   fmt.Sprintf("median of %d Registry.Run", len(p.vcRuns)),
	}
	for _, m := range endToEnd {
		fmt.Printf("  %-12s %14.4f %-6s %s\n", m.name, p.e2e[m.name], m.unit, counts[m.name])
	}
	fmt.Printf("  %-12s %14.6f %-6s %d failed of %d ops attempted\n", "fail_frac", p.ops.failFrac(), "ratio",
		p.ops.failed, p.ops.attempted)
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: result:", err)
		return
	}
	fmt.Println(string(b))
}
