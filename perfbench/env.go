package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// envHeader identifies the machine and the code a run measured, so
// numbers from different machines or trees are never compared by
// accident.
type envHeader struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

func environment(cfg config) string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	h := envHeader{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit,
		SourceHash: sourceHash("."),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
	}
	b, err := json.Marshal(h)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests every Go source and module file under root
// (hidden directories such as the build directory excluded), naming
// the measured tree even where no commit id is available.
func sourceHash(root string) string {
	sum := sha256.New()
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
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(sum, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(sum, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}
