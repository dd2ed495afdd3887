package main

import (
	"errors"
	"fmt"
	"time"

	vnros "github.com/verified-os/vnros"
)

// client is one contract-checked user process (System.Run). Its
// program body runs the closures sent to it, so populate, warm-up and
// the timed loop all issue syscalls from the process's own goroutine.
type client struct {
	p    *vnros.Process
	cmds chan func(*vnros.Process)
}

func startClient(s *vnros.System, parent *vnros.Sys, name string) (*client, error) {
	cmds := make(chan func(*vnros.Process))
	p, err := s.Run(parent, name, func(p *vnros.Process) int {
		for f := range cmds {
			f(p)
		}
		return 0
	})
	if err != nil {
		return nil, err
	}
	return &client{p: p, cmds: cmds}, nil
}

// do runs f on the client's goroutine and waits for it.
func (c *client) do(f func(p *vnros.Process) error) error {
	return <-c.start(f)
}

// start runs f on the client's goroutine; the channel yields its error.
func (c *client) start(f func(p *vnros.Process) error) <-chan error {
	errc := make(chan error, 1)
	c.cmds <- func(p *vnros.Process) { errc <- f(p) }
	return errc
}

// stop ends the client's program; it exits once its current closure
// returns.
func (c *client) stop() { close(c.cmds) }

// onAll runs f(i, p) on every client at once and waits for all of them.
func onAll(cs []*client, f func(i int, p *vnros.Process) error) error {
	errcs := make([]<-chan error, len(cs))
	for i, c := range cs {
		i := i
		errcs[i] = c.start(func(p *vnros.Process) error { return f(i, p) })
	}
	var errs []error
	for i, errc := range errcs {
		if err := <-errc; err != nil {
			errs = append(errs, fmt.Errorf("client %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// stopAll stops every client and waits for the systems' programs.
func stopAll(cs []*client, systems ...*vnros.System) {
	for _, c := range cs {
		c.stop()
	}
	for _, s := range systems {
		if s != nil {
			s.WaitAll()
		}
	}
}

// checkSystems runs the kernel-wide output checks: every handle's §3
// contract held, the replicas agree and the kernel invariants hold.
func checkSystems(handles []*vnros.Sys, systems ...*vnros.System) error {
	var errs []error
	for _, h := range handles {
		if err := h.ContractErr(); err != nil {
			errs = append(errs, fmt.Errorf("pid %d contract: %w", h.PID(), err))
		}
	}
	for _, s := range systems {
		if err := s.CheckReplicaAgreement(); err != nil {
			errs = append(errs, fmt.Errorf("replica agreement: %w", err))
		}
		if err := s.CheckKernelInvariants(); err != nil {
			errs = append(errs, fmt.Errorf("kernel invariants: %w", err))
		}
	}
	return errors.Join(errs...)
}

// sample is one completed request: when it started, relative to the
// timed phase, and how long it took.
type sample struct{ at, d time.Duration }

// requestFunc issues one request as a client, counting its ops; an
// error is a failed output check and ends the phase.
type requestFunc func(p *vnros.Process, ops *opCount, l *lane, req uint64) error

// closedLoop runs every client in a closed loop until the deadline:
// each sends its next request once the previous one returned. perClient
// returns client i's request function.
func closedLoop(cs []*client, deadline time.Time, tr *tracer, perClient func(i int) requestFunc) (phase, error) {
	samples := make([][]sample, len(cs))
	ops := make([]opCount, len(cs))
	t0 := time.Now()
	err := onAll(cs, func(i int, p *vnros.Process) error {
		l, next := tr.lane(), perClient(i)
		for time.Now().Before(deadline) {
			req := tr.newReq()
			var o opCount
			start := time.Now()
			err := next(p, &o, l, req)
			d := time.Since(start)
			ops[i].add(o)
			if err != nil {
				return err
			}
			if o.failed == 0 {
				samples[i] = append(samples[i], sample{at: start.Sub(t0), d: d})
			}
		}
		return nil
	})
	ph := phase{elapsed: time.Since(t0)}
	for i := range cs {
		ph.samples = append(ph.samples, samples[i]...)
		ph.ops.add(ops[i])
	}
	return ph, err
}
