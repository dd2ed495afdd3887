package main

import (
	"errors"
	"fmt"
	"time"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/fs"
)

// durable sizes: each client holds durFilesPerClient open 64 KiB files
// and writes durPagesPerReq pages per request, each request ending in
// its own OpSync.
const (
	durFilesPerClient = 4
	durPagesPerFile   = 16
	durPagesPerReq    = 2
	durWarmReqs       = 200 // per client, before the timed phase
	durTailReqs       = 20  // per client, journaled after the last checkpoint
)

// durableConfig is the sharded kernel with per-shard WALs.
var durableConfig = vnros.Config{Shards: 2, WAL: true}

type durable struct {
	sys   *vnros.System
	init  *vnros.Sys
	cs    []*client
	seed  int64
	fds   [][]vnros.FD
	model [][][]byte // [client][file] contents acknowledged by a completed OpSync
	image fs.BlockStore
}

func durPath(client, file int) string { return fmt.Sprintf("/d%d/f%d", client, file) }

func setupDurable(seed int64, tr *tracer) (instance, error) {
	s, init, err := boot(durableConfig, tr.lane())
	if err != nil {
		return nil, err
	}
	d := &durable{sys: s, init: init, seed: seed}
	n := numClients()
	d.fds, d.model = make([][]vnros.FD, n), make([][][]byte, n)
	for i := 0; i < n; i++ {
		c, err := startClient(s, init, fmt.Sprintf("durable%d", i))
		if err != nil {
			d.close()
			return nil, err
		}
		d.cs = append(d.cs, c)
	}
	err = onAll(d.cs, func(i int, p *vnros.Process) error {
		if err := d.populate(i, p); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		g := newDurGen(seed, streamWarm, i)
		for k := 0; k < durWarmReqs; k++ {
			var ops opCount
			d.request(i, p, g.next(), &ops, nil, 0)
			if ops.failed > 0 {
				return fmt.Errorf("warm-up: %d of %d ops failed", ops.failed, ops.attempted)
			}
		}
		return nil
	})
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// populate creates and syncs client i's files and keeps them open.
func (d *durable) populate(i int, p *vnros.Process) error {
	if e := p.Sys.Mkdir(fmt.Sprintf("/d%d", i)); e != vnros.EOK {
		return fmt.Errorf("mkdir: %v", e)
	}
	r := newRand(d.seed, streamPopulate, i)
	for j := 0; j < durFilesPerClient; j++ {
		data := make([]byte, durPagesPerFile*pageSize)
		fill(data, r.Uint64())
		fd, e := p.Sys.Open(durPath(i, j), vnros.OCreate|vnros.ORdWr)
		if e != vnros.EOK {
			return fmt.Errorf("create %s: %v", durPath(i, j), e)
		}
		if n, e := p.Sys.Write(fd, data); e != vnros.EOK || n != uint64(len(data)) {
			return fmt.Errorf("write %s: %d bytes, %v", durPath(i, j), n, e)
		}
		d.fds[i] = append(d.fds[i], fd)
		d.model[i] = append(d.model[i], data)
	}
	if e := p.Sys.Sync(); e != vnros.EOK {
		return fmt.Errorf("sync: %v", e)
	}
	return nil
}

// request submits one {Seek, Write, Write, OpSync} batch under
// WaitBlock and reaps it. The model takes the pages once the batch's
// OpSync completed.
func (d *durable) request(i int, p *vnros.Process, op durOp, ops *opCount, l *lane, req uint64) {
	root := l.begin("durable.request", 0, req)
	defer root.end()
	pages := make([][]byte, durPagesPerReq)
	batch := []vnros.Op{vnros.OpSeek(d.fds[i][op.File], op.Off, vnros.SeekSet)}
	for k := range pages {
		pages[k] = make([]byte, pageSize)
		fill(pages[k], op.Fill+uint64(k))
		batch = append(batch, vnros.OpWrite(d.fds[i][op.File], pages[k]))
	}
	batch = append(batch, vnros.OpSync())
	ops.attempted += int64(len(batch))

	sp := l.begin("sys.submit", root.id(), req)
	b := p.Sys.SubmitOpts(batch, vnros.SubmitOptions{Wait: vnros.WaitBlock})
	sp.end()
	sp = l.begin("sys.wait", root.id(), req)
	comps, err := b.Wait()
	sp.end()
	if err != nil {
		ops.failed += int64(len(batch))
		return
	}
	ok := true
	for k, c := range comps {
		want := uint64(pageSize)
		if k == 0 {
			want = uint64(op.Off)
		}
		if c.Errno != vnros.EOK || (k < len(comps)-1 && c.Val != want) {
			ops.failed++
			ok = false
		}
	}
	if ok {
		for k, pg := range pages {
			copy(d.model[i][op.File][int(op.Off)+k*pageSize:], pg)
		}
	}
}

func (d *durable) measure(deadline time.Time, tr *tracer) (phase, error) {
	return closedLoop(d.cs, deadline, tr, func(i int) requestFunc {
		g := newDurGen(d.seed, streamTimed, i)
		return func(p *vnros.Process, ops *opCount, l *lane, req uint64) error {
			d.request(i, p, g.next(), ops, l, req)
			return nil
		}
	})
}

func (d *durable) check() error {
	handles := []*vnros.Sys{d.init}
	for _, c := range d.cs {
		handles = append(handles, c.p.Sys)
	}
	return checkSystems(handles, d.sys)
}

// crash checkpoints every shard (SaveFS), runs durTailReqs more
// requests per client so the journal holds a fixed, seeded tail, then
// copies the disk as the crash leaves it and releases the machine.
func (d *durable) crash() error {
	if err := d.sys.SaveFS(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err := onAll(d.cs, func(i int, p *vnros.Process) error {
		g := newDurGen(d.seed, streamTail, i)
		var ops opCount
		for k := 0; k < durTailReqs; k++ {
			d.request(i, p, g.next(), &ops, nil, 0)
		}
		if ops.failed > 0 {
			return fmt.Errorf("journal tail: %d of %d ops failed", ops.failed, ops.attempted)
		}
		return nil
	})
	if err != nil {
		return err
	}
	img, err := diskImage(d.sys)
	if err != nil {
		return err
	}
	d.image = img
	d.close()
	d.sys, d.init, d.cs = nil, nil, nil
	return nil
}

// recover boots the crash image with RestoreFS and checks that every
// write acknowledged by a completed OpSync reads back.
func (d *durable) recover(tr *tracer) (time.Duration, error) {
	cfg := durableConfig
	cfg.RestoreFS, cfg.BootDisk = true, d.image
	t0 := time.Now()
	s, init, err := boot(cfg, tr.lane())
	dur := time.Since(t0)
	if err != nil {
		return 0, err
	}
	var errs []error
	for i := range d.model {
		for j, want := range d.model[i] {
			if err := readBack(init, durPath(i, j), want); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if err := checkSystems([]*vnros.Sys{init}, s); err != nil {
		errs = append(errs, err)
	}
	return dur, errors.Join(errs...)
}

func (d *durable) close() { stopAll(d.cs, d.sys) }
