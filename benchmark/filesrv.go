package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/fs"
)

// filesrv sizes. Two clients own filesPerClient files of pagesPerFile
// pages each: 2 × 32 × 128 KiB = 8 MiB of data against the monolithic
// kernel's 4 MiB page cache (1024 pages).
const (
	pageSize       = 4096
	filesPerClient = 32
	pagesPerFile   = 32
	readsPerReq    = 4
	mapOneIn       = 8  // one read in eight takes the zero-copy tier
	writeOneIn     = 10 // one request in ten overwrites a page
	zipfS          = 1.1
	warmReqs       = 500 // per client, before the timed phase
)

// filesrvConfig is the default kernel: monolithic, no WAL.
var filesrvConfig = vnros.Config{}

type filesrv struct {
	sys   *vnros.System
	init  *vnros.Sys
	cs    []*client
	seed  int64
	model [][][]byte // [client][file] expected contents
	image fs.BlockStore
}

func filePath(client, file int) string { return fmt.Sprintf("/c%d/f%02d", client, file) }

func setupFilesrv(seed int64, tr *tracer) (instance, error) {
	s, init, err := boot(filesrvConfig, tr.lane())
	if err != nil {
		return nil, err
	}
	f := &filesrv{sys: s, init: init, seed: seed, model: make([][][]byte, numClients())}
	for i := range f.model {
		c, err := startClient(s, init, fmt.Sprintf("filesrv%d", i))
		if err != nil {
			f.close()
			return nil, err
		}
		f.cs = append(f.cs, c)
	}
	err = onAll(f.cs, func(i int, p *vnros.Process) error {
		if err := f.populate(i, p); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		g := newFileGen(seed, streamWarm, i)
		for k := 0; k < warmReqs; k++ {
			var ops opCount
			if err := f.request(i, p, g.next(), &ops, nil, 0); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if ops.failed > 0 {
				return fmt.Errorf("warm-up: %d of %d ops failed", ops.failed, ops.attempted)
			}
		}
		return nil
	})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// populate creates client i's private files with seeded contents.
func (f *filesrv) populate(i int, p *vnros.Process) error {
	if e := p.Sys.Mkdir(fmt.Sprintf("/c%d", i)); e != vnros.EOK {
		return fmt.Errorf("mkdir: %v", e)
	}
	r := newRand(f.seed, streamPopulate, i)
	f.model[i] = make([][]byte, filesPerClient)
	for j := range f.model[i] {
		data := make([]byte, pagesPerFile*pageSize)
		fill(data, r.Uint64())
		fd, e := p.Sys.Open(filePath(i, j), vnros.OCreate|vnros.ORdWr)
		if e != vnros.EOK {
			return fmt.Errorf("create %s: %v", filePath(i, j), e)
		}
		if n, e := p.Sys.Write(fd, data); e != vnros.EOK || n != uint64(len(data)) {
			return fmt.Errorf("write %s: %d bytes, %v", filePath(i, j), n, e)
		}
		if e := p.Sys.Close(fd); e != vnros.EOK {
			return fmt.Errorf("close %s: %v", filePath(i, j), e)
		}
		f.model[i][j] = data
	}
	return nil
}

// call times one syscall as a child span of parent and counts it.
func call(l *lane, name string, parent, req uint64, ops *opCount, fn func() vnros.Errno) vnros.Errno {
	sp := l.begin(name, parent, req)
	e := fn()
	sp.end()
	ops.attempted++
	if e != vnros.EOK {
		ops.failed++
	}
	return e
}

// request issues one filesrv request as client i. Errnos count as
// failed ops; a wrong byte read back is an error.
func (f *filesrv) request(i int, p *vnros.Process, op fileOp, ops *opCount, l *lane, req uint64) error {
	root := l.begin("filesrv.request", 0, req)
	defer root.end()
	parent := root.id()
	s := p.Sys
	want := f.model[i][op.File]
	var fd vnros.FD
	flags := vnros.ORdOnly
	if op.Write {
		flags = vnros.OWrOnly
	}
	if call(l, "sys.open", parent, req, ops, func() (e vnros.Errno) {
		fd, e = s.Open(filePath(i, op.File), flags)
		return
	}) != vnros.EOK {
		return nil
	}
	defer call(l, "sys.close", parent, req, ops, func() vnros.Errno { return s.Close(fd) })

	if op.Write {
		off := op.WritePage * pageSize
		if call(l, "sys.seek", parent, req, ops, func() vnros.Errno {
			_, e := s.Seek(fd, int64(off), vnros.SeekSet)
			return e
		}) != vnros.EOK {
			return nil
		}
		data := make([]byte, pageSize)
		fill(data, op.Fill)
		var n uint64
		if call(l, "sys.write", parent, req, ops, func() (e vnros.Errno) {
			n, e = s.Write(fd, data)
			return
		}) != vnros.EOK {
			return nil
		}
		if n != pageSize {
			ops.failed++
			return fmt.Errorf("write %s page %d: wrote %d bytes", filePath(i, op.File), op.WritePage, n)
		}
		copy(want[off:], data)
		return nil
	}

	buf := make([]byte, pageSize)
	for k, page := range op.Pages {
		off := uint64(page * pageSize)
		got, e := f.readPage(s, fd, off, op.Map[k], buf, ops, l, parent, req)
		if e != vnros.EOK {
			continue
		}
		if !bytes.Equal(got, want[off:off+pageSize]) {
			ops.failed++
			return fmt.Errorf("read %s page %d: contents differ", filePath(i, op.File), page)
		}
	}
	return nil
}

// readPage reads one page, through PreadMap/MemRead/PreadUnmap when
// mapped is set, falling back to Pread when PreadMap returns EAGAIN (an
// invalidation raced its fill: the documented retry signal, counted as
// attempted but not failed).
func (f *filesrv) readPage(s *vnros.Sys, fd vnros.FD, off uint64, mapped bool, buf []byte,
	ops *opCount, l *lane, parent, req uint64) ([]byte, vnros.Errno) {
	if mapped {
		sp := l.begin("sys.preadmap", parent, req)
		va, n, e := s.PreadMap(fd, off)
		sp.end()
		ops.attempted++
		switch e {
		case vnros.EOK:
			e = call(l, "sys.memread", parent, req, ops, func() vnros.Errno { return s.MemRead(va, buf[:n]) })
			if ue := call(l, "sys.preadunmap", parent, req, ops, func() vnros.Errno { return s.PreadUnmap(va) }); e == vnros.EOK {
				e = ue
			}
			return buf[:n], e
		case vnros.EAGAIN:
		default:
			ops.failed++
			return nil, e
		}
	}
	var n uint64
	e := call(l, "sys.pread", parent, req, ops, func() (e vnros.Errno) {
		n, e = s.Pread(fd, buf, off)
		return
	})
	return buf[:n], e
}

func (f *filesrv) measure(deadline time.Time, tr *tracer) (phase, error) {
	return closedLoop(f.cs, deadline, tr, func(i int) requestFunc {
		g := newFileGen(f.seed, streamTimed, i)
		return func(p *vnros.Process, ops *opCount, l *lane, req uint64) error {
			return f.request(i, p, g.next(), ops, l, req)
		}
	})
}

func (f *filesrv) check() error {
	handles := []*vnros.Sys{f.init}
	for _, c := range f.cs {
		handles = append(handles, c.p.Sys)
	}
	return checkSystems(handles, f.sys)
}

// crash checkpoints with SaveFS (the monolith without WAL persists
// only through it), copies the disk and releases the machine.
func (f *filesrv) crash() error {
	if err := f.sys.SaveFS(); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	img, err := diskImage(f.sys)
	if err != nil {
		return err
	}
	f.image = img
	f.close()
	f.sys, f.init, f.cs = nil, nil, nil
	return nil
}

// recover boots the image and checks that every file reads back.
func (f *filesrv) recover(tr *tracer) (time.Duration, error) {
	cfg := filesrvConfig
	cfg.RestoreFS, cfg.BootDisk = true, f.image
	t0 := time.Now()
	s, init, err := boot(cfg, tr.lane())
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	var errs []error
	for i := range f.model {
		for j, want := range f.model[i] {
			if err := readBack(init, filePath(i, j), want); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if err := checkSystems([]*vnros.Sys{init}, s); err != nil {
		errs = append(errs, err)
	}
	return d, errors.Join(errs...)
}

func (f *filesrv) close() { stopAll(f.cs, f.sys) }
