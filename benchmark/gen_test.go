package main

import (
	"reflect"
	"testing"
)

// draw takes n items from a generator.
func draw[T any](n int, next func() T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestSameSeedSameOpStream(t *testing.T) {
	const n = 500
	streams := map[string]func(seed int64) any{
		"filesrv": func(seed int64) any { return draw(n, newFileGen(seed, streamTimed, 1).next) },
		"durable": func(seed int64) any { return draw(n, newDurGen(seed, streamTimed, 1).next) },
		"echo": func(seed int64) any {
			g := newEchoGen(seed, streamTimed, 1)
			return draw(n, func() []byte { p := make([]byte, echoPayload); g.next(p); return p })
		},
	}
	for name, stream := range streams {
		if !reflect.DeepEqual(stream(7), stream(7)) {
			t.Errorf("%s: seed 7 gave two different op streams", name)
		}
		if reflect.DeepEqual(stream(7), stream(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
	}
}

func TestStreamsOfOneSeedDiffer(t *testing.T) {
	a := draw(100, newFileGen(7, streamWarm, 0).next)
	if reflect.DeepEqual(a, draw(100, newFileGen(7, streamTimed, 0).next)) {
		t.Error("warm-up and timed streams are equal")
	}
	if reflect.DeepEqual(a, draw(100, newFileGen(7, streamWarm, 1).next)) {
		t.Error("clients 0 and 1 draw the same stream")
	}
}

func TestFileOpsStayInRange(t *testing.T) {
	var writes, maps, reads int
	for _, op := range draw(20000, newFileGen(3, streamTimed, 0).next) {
		if op.File < 0 || op.File >= filesPerClient || op.WritePage < 0 || op.WritePage >= pagesPerFile {
			t.Fatalf("op out of range: %+v", op)
		}
		if op.Write {
			writes++
			continue
		}
		for k, p := range op.Pages {
			if p < 0 || p >= pagesPerFile {
				t.Fatalf("page out of range: %+v", op)
			}
			reads++
			if op.Map[k] {
				maps++
			}
		}
	}
	// One request in ten writes; one read in eight is mapped.
	if writes < 1700 || writes > 2300 {
		t.Errorf("writes = %d of 20000 requests, want about 2000", writes)
	}
	if r := float64(maps) / float64(reads); r < 0.11 || r > 0.14 {
		t.Errorf("mapped share of reads = %.3f, want about 0.125", r)
	}
}

func TestDurableOpsStayInFile(t *testing.T) {
	for _, op := range draw(5000, newDurGen(3, streamTimed, 0).next) {
		if op.File < 0 || op.File >= durFilesPerClient || op.Off < 0 || op.Off%pageSize != 0 ||
			op.Off+durPagesPerReq*pageSize > durPagesPerFile*pageSize {
			t.Fatalf("op out of range: %+v", op)
		}
	}
}
