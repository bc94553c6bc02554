package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sourceID names the code under test: the git commit when the checkout is a
// repository, plus a hash of the Go sources outside the benchmark, so a
// checkout without git history is still identified.
func sourceID(root string) string {
	commit := "nogit"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if data, err := os.ReadFile(path); err == nil {
				h.Write([]byte(rel))
				h.Write(data)
			}
		}
		return nil
	})
	return commit + "+src:" + hex.EncodeToString(h.Sum(nil))[:12]
}

// spinSink keeps the spin loop from being optimized away.
var spinSink atomic.Uint64

// spinFor runs a pure ALU loop for d and returns the iterations completed.
func spinFor(d time.Duration) uint64 {
	x := uint64(1)
	var n uint64
	for deadline := time.Now().Add(d); time.Now().Before(deadline); n++ {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink.Add(x)
	return n
}

// spinRatio is the throughput of two goroutines spinning at once over that
// of one: the parallel ceiling of the host for CPU-bound work (2.0 on two
// idle cores, near 1.0 when the cores are shared).
func spinRatio() float64 {
	const d = 200 * time.Millisecond
	one := spinFor(d)
	var wg sync.WaitGroup
	counts := make([]uint64, 2)
	for g := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[g] = spinFor(d)
		}()
	}
	wg.Wait()
	return ratio(float64(counts[0]+counts[1]), float64(one))
}
