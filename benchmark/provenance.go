package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	vnros "github.com/verified-os/vnros"
)

// configRecord is a kernel Config with core.Boot's defaults applied.
type configRecord struct {
	Cores      int    `json:"cores"`
	Shards     int    `json:"shards"`
	WAL        bool   `json:"wal"`
	MemBytes   uint64 `json:"mem_bytes"`
	DiskBlocks uint64 `json:"disk_blocks"`
}

// resolve applies the defaults core.Boot applies to zero fields.
func resolve(c vnros.Config) configRecord {
	r := configRecord{Cores: c.Cores, Shards: c.Shards, WAL: c.WAL,
		MemBytes: uint64(c.MemBytes), DiskBlocks: c.DiskBlocks}
	if r.Cores <= 0 {
		r.Cores = 2
	}
	if r.Shards <= 1 {
		r.Shards = 1
	}
	if r.MemBytes == 0 {
		r.MemBytes = 512 << 20
	}
	if r.DiskBlocks == 0 {
		r.DiskBlocks = 1 << 16
	}
	return r
}

// provenance says what produced a result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Contract: every syscall handle the workload uses checks the §3
	// contract (System.Run and System.Init handles always do).
	Contract bool `json:"contract"`
	// Obs: off in the untraced pass; on, sampling every event, in the
	// traced pass.
	Obs           string                  `json:"obs"`
	Configs       map[string]configRecord `json:"configs,omitempty"`
	Clients       int                     `json:"clients"`
	VerifyJobs    int                     `json:"verify_jobs"`
	VerifyVCs     []string                `json:"verify_vcs"`
	VerifyExclude []string                `json:"verify_excluded_modules"`
	VCSeed        int64                   `json:"vc_seed"`
	Note          string                  `json:"note,omitempty"`
}

func newProvenance(w workload, seed int64, secs int, traced bool) provenance {
	p := provenance{
		Workload: w.name, Seed: seed, Seconds: secs, Traced: traced,
		Commit: commit(), SourceHash: sourceHash("."),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Contract: w.configs != nil, Obs: "off",
		Clients: numClients(), VerifyJobs: verifyJobs(), VerifyVCs: w.vcs,
		VerifyExclude: excludedModules, VCSeed: vcSeed,
	}
	if w.vcs == nil {
		p.VerifyVCs = []string{"all"}
	}
	if traced {
		p.Obs = "off in the untraced pass; on, sample rate 1, in the traced pass"
	}
	if len(w.configs) > 0 {
		p.Configs = make(map[string]configRecord)
		for k, c := range w.configs {
			p.Configs[k] = resolve(c)
		}
	}
	if w.name == "verify" {
		p.Clients = 0
	}
	if len(w.configs) > 1 {
		p.Note = "obs is process-global: kernel counters sum every machine of the workload"
	}
	return p
}

// commit is the VCS revision stamped into the binary, if it was built
// inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

// sourceHash hashes every Go source and module file under root (names
// and contents, skipping dot-directories), so results from a checkout
// without git history still name the code that produced them.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record is the full result of one invocation, written beside the
// traces.
type record struct {
	Provenance provenance         `json:"provenance"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	Traced     map[string]float64 `json:"traced_end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Refused    []string           `json:"refused_percentiles,omitempty"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
}

func writeRecord(dir string, r record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.Provenance.Traced {
		trace = 1
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Provenance.Workload, r.Provenance.Seed, trace))
	return os.WriteFile(name, append(b, '\n'), 0o644)
}

func writeTrace(path string, spans []span, p provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := map[string]any{"provenance": p,
		"note": "obs is process-global: on echo the kernel counters sum both machines"}
	if err := writeChrome(f, spans, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
