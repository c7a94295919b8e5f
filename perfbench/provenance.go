package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// provenance stamps every output with what produced it.
type provenance struct {
	Benchmark  string         `json:"benchmark"`
	Workload   string         `json:"workload"`
	Params     map[string]any `json:"params"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	Engine     string         `json:"engine"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	// GitRevision comes from the build's VCS stamp; SourceSHA256 hashes the
	// Go sources under the repository root, so a run from a checkout
	// without git history is still traceable to its code.
	GitRevision  string `json:"git_revision"`
	GitModified  bool   `json:"git_modified,omitempty"`
	SourceSHA256 string `json:"source_sha256"`
}

func newProvenance(def *workloadDef, o options, engine string) provenance {
	p := provenance{
		Benchmark: "paella-perfbench/v1", Workload: def.name, Params: def.params,
		Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Engine: engine,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GitRevision: "unknown", SourceSHA256: sourceDigest(o.root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitRevision = s.Value
			case "vcs.modified":
				p.GitModified = s.Value == "true"
			}
		}
	}
	return p
}

// sourceDigest hashes every .go and go.mod file under root (skipping
// hidden directories such as build caches) in path order; "unknown" if
// the tree cannot be read.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil || len(paths) == 0 {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
