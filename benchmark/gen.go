package main

import "math/rand/v2"

// Every workload draws its inputs from a stream seeded by (--seed,
// stream label, client index), so one seed fixes every op a run issues
// and the program under test never sees the seed itself.

// Stream labels keep the populate, warm-up, timed and journal-tail
// inputs of one client independent of each other.
const (
	streamPopulate uint64 = iota + 1
	streamWarm
	streamTimed
	streamTail
)

func newRand(seed int64, stream uint64, client int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream<<32|uint64(client)))
}

// fill writes a deterministic byte pattern derived from v into p.
func fill(p []byte, v uint64) {
	for i := range p {
		v = v*6364136223846793005 + 1442695040888963407
		p[i] = byte(v >> 56)
	}
}

// fileOp is one filesrv request: open file File, then either overwrite
// page WritePage or read the four pages in Pages, taking the zero-copy
// tier where Map is set.
type fileOp struct {
	File      int
	Write     bool
	WritePage int
	Fill      uint64
	Pages     [readsPerReq]int
	Map       [readsPerReq]bool
}

// fileGen draws filesrv requests: the file by Zipf(zipfS) over the
// client's files, pages uniformly within it.
type fileGen struct {
	r    *rand.Rand
	zipf *rand.Zipf
}

func newFileGen(seed int64, stream uint64, client int) *fileGen {
	r := newRand(seed, stream, client)
	return &fileGen{r: r, zipf: rand.NewZipf(r, zipfS, 1, filesPerClient-1)}
}

func (g *fileGen) next() fileOp {
	op := fileOp{File: int(g.zipf.Uint64())}
	if g.r.IntN(writeOneIn) == 0 {
		op.Write = true
		op.WritePage = g.r.IntN(pagesPerFile)
		op.Fill = g.r.Uint64()
		return op
	}
	for i := range op.Pages {
		op.Pages[i] = g.r.IntN(pagesPerFile)
		op.Map[i] = g.r.IntN(mapOneIn) == 0
	}
	return op
}

// durOp is one durable request: on open file File, seek to Off and
// write two pages filled from Fill, then sync.
type durOp struct {
	File int
	Off  int64
	Fill uint64
}

type durGen struct{ r *rand.Rand }

func newDurGen(seed int64, stream uint64, client int) *durGen {
	return &durGen{r: newRand(seed, stream, client)}
}

func (g *durGen) next() durOp {
	return durOp{
		File: g.r.IntN(durFilesPerClient),
		Off:  int64(g.r.IntN(durPagesPerFile-durPagesPerReq+1)) * pageSize,
		Fill: g.r.Uint64(),
	}
}

// echoGen draws echo datagram payloads.
type echoGen struct{ r *rand.Rand }

func newEchoGen(seed int64, stream uint64, client int) *echoGen {
	return &echoGen{r: newRand(seed, stream, client)}
}

func (g *echoGen) next(p []byte) {
	fill(p, g.r.Uint64())
}
