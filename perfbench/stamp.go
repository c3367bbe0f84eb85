package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// machineStamp records the machine and build a result came from: CPU
// count and model, GOMAXPROCS, kernel, Go toolchain, and the commit of the
// measured checkout. A checkout without git metadata is identified by a
// digest of its Go sources and module files instead.
func machineStamp(e *env) (map[string]any, error) {
	digest, err := sourceDigest(e.root)
	if err != nil {
		return nil, err
	}
	commit := "unknown"
	if bi, err := buildinfo.ReadFile(filepath.Join(e.bin, "harvestd")); err == nil {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux; the stamp says "unknown"
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":        orUnknown(strings.TrimSpace(string(kernel))),
		"cpu_model":     cpuModel(),
		"commit":        commit,
		"source_sha256": digest,
	}, nil
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's .go, go.mod and go.sum files (paths
// and contents, in sorted order), skipping dot-directories such as the
// build directory.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return "", err
		}
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cpuSteal reads the machine-wide CPU time counters of /proc/stat: the
// steal ticks and the total. A hypervisor that runs other guests on this
// machine's CPUs shows up as steal, and every timing in the run with it.
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// stealShare is the share of CPU time stolen between two cpuSteal reads.
func stealShare(s0, t0, s1, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	return (s1 - s0) / (t1 - t0)
}
