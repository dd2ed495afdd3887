package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/verifier"
)

// verifyJobs is the verifier's worker count: one per CPU.
func verifyJobs() int { return runtime.NumCPU() }

// excludedModules are left out of every registry the benchmark runs.
// Three sys VCs take data frames from testFrames, which keeps its
// cursor in a package-level map without a lock. At Jobs >= 2 two of
// them can write the map at once, and the process dies with "fatal
// error: concurrent map writes": 3 of about 40 ten-second verify runs
// on a 2-CPU VM did.
// Take sys out of this list once that map is guarded.
var excludedModules = []string{"sys"}

// selectVCs selects the VCs named in sel, each a module ("wal") or one
// VC's ID ("core:persistence-across-reboot").
func selectVCs(sel []string) func(verifier.Obligation) bool {
	return func(o verifier.Obligation) bool {
		return slices.Contains(sel, o.Module) || slices.Contains(sel, o.ID())
	}
}

// recoveryVCs prove crash recovery: the journal modules and the
// composed kernel's reboot round trips.
var recoveryVCs = []string{"wal", "walshard", "core:wal-crash-recovery-end-to-end", "core:persistence-across-reboot"}

// ledger returns a fresh registry of the full ledger's VCs that keep
// selects (all for a nil keep), less the excluded modules. Each run
// gets a fresh one, as each vnros-verify run does: a registry keeps
// every system its ulib VCs boot.
func ledger(keep func(verifier.Obligation) bool) *vnros.VCRegistry {
	g := &vnros.VCRegistry{}
	for _, o := range vnros.NewVCRegistry().Obligations() {
		if (keep == nil || keep(o)) && !slices.Contains(excludedModules, o.Module) {
			g.Register(o)
		}
	}
	return g
}

// vcRun is what the benchmark keeps of one Registry.Run. It keeps no
// *VCReport: a report's obligations reach everything their registry
// booted.
type vcRun struct {
	total, max, serial time.Duration
	speedup            float64
	modules            map[string]float64 // seconds of VC time per module
	starts             []time.Time        // per completed VC, in completion order
	durs               []time.Duration
	vcs, failed        int
}

// vcSeed is the VC seed of every Registry.Run, vnros-verify's default:
// each run discharges the same obligations with the same inputs, so
// verify_s measures the ledger, not the inputs a seed happens to draw.
const vcSeed = 2026

// runVerifier runs g at Jobs = nproc, recording each VC as a span
// under a verifier.run span. Failed VCs are an error.
func runVerifier(g *vnros.VCRegistry, l *lane) (vcRun, error) {
	var run vcRun
	root := l.begin("verifier.run", 0, 0)
	rep := g.Run(vnros.VCOptions{Seed: vcSeed, Jobs: verifyJobs(), Progress: func(r verifier.Result) {
		end := time.Now()
		run.starts = append(run.starts, end.Add(-r.Duration))
		run.durs = append(run.durs, r.Duration)
		l.record("verifier.vc", end.Add(-r.Duration), end, root.id(), 0)
	}})
	root.end()
	run.total, run.max, run.serial, run.speedup = rep.Total, rep.Max(), rep.SerialTime(), rep.Speedup()
	run.vcs = len(rep.Results)
	run.modules = make(map[string]float64)
	for _, r := range rep.Results {
		run.modules[moduleMetric(r.Obligation.Module)] += r.Duration.Seconds()
	}
	var errs []error
	for _, r := range rep.Failed() {
		run.failed++
		errs = append(errs, fmt.Errorf("VC %s failed: %w", r.Obligation.ID(), r.Err))
	}
	return run, errors.Join(errs...)
}

type verifyInstance struct{}

// setupVerify builds the registry and warms it with one untimed run.
func setupVerify(_ int64, tr *tracer) (instance, error) {
	l := tr.lane()
	sp := l.begin("verifier.registry", 0, 0)
	g := ledger(nil)
	sp.end()
	if _, err := runVerifier(g, l); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &verifyInstance{}, nil
}

// measure runs the full registry back to back until the deadline. Each
// VC discharge is one request.
func (v *verifyInstance) measure(deadline time.Time, tr *tracer) (phase, error) {
	l := tr.lane()
	var ph phase
	t0 := time.Now()
	for time.Now().Before(deadline) {
		run, err := runVerifier(ledger(nil), l)
		ph.vcRuns = append(ph.vcRuns, run)
		ph.ops.attempted += int64(run.vcs)
		ph.ops.failed += int64(run.failed)
		for k, start := range run.starts {
			ph.samples = append(ph.samples, sample{at: start.Sub(t0), d: run.durs[k]})
		}
		if err != nil {
			ph.elapsed = time.Since(t0)
			return ph, err
		}
	}
	ph.elapsed = time.Since(t0)
	return ph, nil
}

func (v *verifyInstance) check() error { return nil }

func (v *verifyInstance) crash() error { return nil }

// recover times the VCs that prove crash recovery.
func (v *verifyInstance) recover(tr *tracer) (time.Duration, error) {
	run, err := runVerifier(ledger(selectVCs(recoveryVCs)), tr.lane())
	if err != nil {
		return 0, err
	}
	return run.total, nil
}

func (v *verifyInstance) close() {}

// moduleMetric maps a module name onto its metric name component.
func moduleMetric(m string) string { return strings.ReplaceAll(m, "/", ".") }
