package main

import (
	"bytes"
	"fmt"
	"runtime"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/fs"
)

// numClients is the client count of every syscall workload: two, or
// fewer on a machine with fewer CPUs, so load never comes from more
// client goroutines than there are CPUs.
func numClients() int { return min(2, runtime.NumCPU()) }

// boot boots a system and its init handle, as spans core.boot and
// core.init.
func boot(cfg vnros.Config, l *lane) (*vnros.System, *vnros.Sys, error) {
	sp := l.begin("core.boot", 0, 0)
	s, err := vnros.Boot(cfg)
	sp.end()
	if err != nil {
		return nil, nil, fmt.Errorf("boot: %w", err)
	}
	sp = l.begin("core.init", 0, 0)
	init, err := s.Init()
	sp.end()
	if err != nil {
		return nil, nil, fmt.Errorf("init: %w", err)
	}
	return s, init, nil
}

// diskImage copies a system's disk as it stands, the way a crash would
// leave it. All-zero blocks stay unset in the sparse copy.
func diskImage(s *vnros.System) (fs.BlockStore, error) {
	d := s.BlockDev
	img := fs.NewMemBlockStore(d.BlockSize(), d.NumBlocks())
	buf := make([]byte, d.BlockSize())
	zero := make([]byte, d.BlockSize())
	for i := uint64(0); i < d.NumBlocks(); i++ {
		if err := d.ReadBlock(i, buf); err != nil {
			return nil, fmt.Errorf("disk image block %d: %w", i, err)
		}
		if bytes.Equal(buf, zero) {
			continue
		}
		if err := img.WriteBlock(i, buf); err != nil {
			return nil, fmt.Errorf("disk image block %d: %w", i, err)
		}
	}
	return img, nil
}

// readBack checks that path holds exactly want.
func readBack(h *vnros.Sys, path string, want []byte) error {
	fd, e := h.Open(path, vnros.ORdOnly)
	if e != vnros.EOK {
		return fmt.Errorf("read back %s: open: %v", path, e)
	}
	defer h.Close(fd)
	got := make([]byte, len(want)+1)
	n, e := h.Read(fd, got)
	if e != vnros.EOK {
		return fmt.Errorf("read back %s: read: %v", path, e)
	}
	if !bytes.Equal(got[:n], want) {
		return fmt.Errorf("read back %s: %d bytes differ from the %d acknowledged", path, n, len(want))
	}
	return nil
}
