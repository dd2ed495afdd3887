package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/fs"
)

// echo sizes and addresses.
const (
	echoPayload   = 64
	echoServerRx  = 2 // blocking receivers on the server socket
	echoPort      = 7000
	echoServer    = vnros.NetAddr(0xA)
	echoClient    = vnros.NetAddr(0xB)
	echoWarmMsgs  = 200 // per client, before the timed phase
	echoLostAfter = 10 * time.Second
)

// echoConfig is each machine's kernel: sharded, with WAL so the
// server's disk is a bootable crash image (the WAL sits idle: echo
// writes no files).
var echoConfig = vnros.Config{Shards: 2, WAL: true}

type echo struct {
	server, clientM *vnros.System
	serverInit      *vnros.Sys
	clientInit      *vnros.Sys
	srv             *client
	srvDone         <-chan error
	srvSock         vnros.SockID
	cs              []*client
	socks           []vnros.SockID
	seed            int64
	image           fs.BlockStore
}

func setupEcho(seed int64, tr *tracer) (instance, error) {
	l := tr.lane()
	network := vnros.NewNetwork()
	scfg, ccfg := echoConfig, echoConfig
	scfg.NICAddr, scfg.Network = uint64(echoServer), network
	ccfg.NICAddr, ccfg.Network = uint64(echoClient), network
	e := &echo{seed: seed}
	var err error
	if e.server, e.serverInit, err = boot(scfg, l); err != nil {
		return nil, err
	}
	if e.clientM, e.clientInit, err = boot(ccfg, l); err != nil {
		return nil, err
	}
	if e.srv, err = startClient(e.server, e.serverInit, "echosrv"); err != nil {
		return nil, err
	}
	n := numClients()
	if err := e.srv.do(func(p *vnros.Process) error {
		var errno vnros.Errno
		e.srvSock, errno = p.Sys.SockBindBudget(echoPort, uint32(4*n))
		if errno != vnros.EOK {
			return fmt.Errorf("server bind: %v", errno)
		}
		return nil
	}); err != nil {
		e.close()
		return nil, err
	}
	// The server's receivers share one socket; they exit when it is
	// closed under them (EBADF).
	e.srvDone = e.srv.start(func(p *vnros.Process) error {
		var wg sync.WaitGroup
		errs := make([]error, echoServerRx)
		for w := 0; w < echoServerRx; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					payload, from, port, errno := p.Sys.SockRecvBlocking(e.srvSock)
					if errno == vnros.EBADF {
						return
					}
					if errno != vnros.EOK {
						errs[w] = fmt.Errorf("server recv: %v", errno)
						return
					}
					if _, errno := p.Sys.SockSend(e.srvSock, from, port, payload); errno != vnros.EOK {
						errs[w] = fmt.Errorf("server send: %v", errno)
						return
					}
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	for i := 0; i < n; i++ {
		c, err := startClient(e.clientM, e.clientInit, fmt.Sprintf("echo%d", i))
		if err != nil {
			e.close()
			return nil, err
		}
		e.cs = append(e.cs, c)
	}
	e.socks = make([]vnros.SockID, n)
	err = onAll(e.cs, func(i int, p *vnros.Process) error {
		sock, errno := p.Sys.SockBind(0)
		if errno != vnros.EOK {
			return fmt.Errorf("client bind: %v", errno)
		}
		e.socks[i] = sock
		g := newEchoGen(seed, streamWarm, i)
		for k := 0; k < echoWarmMsgs; k++ {
			var ops opCount
			if err := e.request(i, p, g, &ops, nil, 0); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if ops.failed > 0 {
				return fmt.Errorf("warm-up: %d of %d ops failed", ops.failed, ops.attempted)
			}
		}
		return nil
	})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// request sends one datagram and blocks for its echo, which must equal
// the request and come from the server.
func (e *echo) request(i int, p *vnros.Process, g *echoGen, ops *opCount, l *lane, req uint64) error {
	root := l.begin("echo.request", 0, req)
	defer root.end()
	payload := make([]byte, echoPayload)
	g.next(payload)
	if call(l, "sys.socksend", root.id(), req, ops, func() vnros.Errno {
		_, errno := p.Sys.SockSend(e.socks[i], echoServer, echoPort, payload)
		return errno
	}) != vnros.EOK {
		return nil
	}
	var reply []byte
	var from vnros.NetAddr
	var port vnros.Port
	if call(l, "sys.sockrecv", root.id(), req, ops, func() (errno vnros.Errno) {
		reply, from, port, errno = p.Sys.SockRecvBlocking(e.socks[i])
		return
	}) != vnros.EOK {
		return nil
	}
	if !bytes.Equal(reply, payload) || from != echoServer || port != echoPort {
		ops.failed++
		return fmt.Errorf("reply %x from %v:%d, want %x from %v:%d", reply, from, port, payload, echoServer, echoPort)
	}
	return nil
}

func (e *echo) measure(deadline time.Time, tr *tracer) (phase, error) {
	// A lost datagram would park a client forever: past echoLostAfter,
	// close the client sockets so their receives return.
	var lost atomic.Bool
	watchdog := time.AfterFunc(time.Until(deadline)+echoLostAfter, func() {
		lost.Store(true)
		for i, c := range e.cs {
			c.p.Sys.SockClose(e.socks[i])
		}
	})
	ph, err := closedLoop(e.cs, deadline, tr, func(i int) requestFunc {
		g := newEchoGen(e.seed, streamTimed, i)
		return func(p *vnros.Process, ops *opCount, l *lane, req uint64) error {
			return e.request(i, p, g, ops, l, req)
		}
	})
	if !watchdog.Stop() || lost.Load() {
		err = errors.Join(err, fmt.Errorf("a reply was lost: no echo within %v", echoLostAfter))
	}
	return ph, err
}

func (e *echo) check() error {
	handles := []*vnros.Sys{e.serverInit, e.clientInit, e.srv.p.Sys}
	for _, c := range e.cs {
		handles = append(handles, c.p.Sys)
	}
	return checkSystems(handles, e.server, e.clientM)
}

// crash copies the server machine's disk and releases both machines.
func (e *echo) crash() error {
	img, err := diskImage(e.server)
	if err != nil {
		return err
	}
	e.image = img
	e.close()
	e.server, e.clientM, e.srv, e.cs = nil, nil, nil, nil
	return nil
}

// recover boots the server's crash image, detached from the network.
func (e *echo) recover(tr *tracer) (time.Duration, error) {
	cfg := echoConfig
	cfg.RestoreFS, cfg.BootDisk = true, e.image
	t0 := time.Now()
	s, init, err := boot(cfg, tr.lane())
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, checkSystems([]*vnros.Sys{init}, s)
}

func (e *echo) close() {
	if e.srv != nil && e.srvDone != nil {
		e.srv.p.Sys.SockClose(e.srvSock)
		<-e.srvDone
	}
	var cs []*client
	if e.srv != nil {
		cs = append(cs, e.srv)
	}
	stopAll(append(cs, e.cs...), e.server, e.clientM)
}
