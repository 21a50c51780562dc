package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"gofi/internal/tensor"
)

// host identifies where and on what code a run was measured. Results
// from different hosts or commits must not be compared as if they were
// one session; the stamp makes that visible.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernels    string `json:"kernel_backend"`
	// Commit is the VCS revision stamped into the build, when the source
	// was built inside a git checkout.
	Commit string `json:"commit,omitempty"`
	// Source is a SHA-256 over the program's Go sources and module
	// files, so a run made outside git still names the code it measured.
	Source string `json:"source_sha256"`
	// TensorWorkers and EngineWorkers are the pinned worker counts.
	TensorWorkers int `json:"tensor_workers"`
	EngineWorkers int `json:"engine_workers"`
}

// engineWorkers is the campaign engine's worker count on the local
// workloads, and the per-shard worker count on serve-sharded.
const engineWorkers = 1

// pinWorkers fixes the intra-op kernel parallelism for the whole run:
// one tensor worker, so a campaign's cost does not depend on how many
// idle CPUs the host happens to have.
func pinWorkers() { tensor.SetWorkers(1) }

func hostInfo() host {
	h := host{
		CPU:           cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Kernels:       tensor.KernelBackend(),
		Source:        sourceDigest("."),
		TensorWorkers: tensor.Workers(),
		EngineWorkers: engineWorkers,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

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

// sourceDigest hashes every .go, go.mod and go.sum file under root, in
// path order, skipping dot-directories (build caches, outputs). It is a
// label, not a check: files it cannot read are left out.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\n")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB returns the process's peak resident set size in MiB (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
