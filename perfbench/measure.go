package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"dws/internal/stats"
)

// pct is the p-th percentile of xs (0 for an empty sample).
func pct(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

func median(xs []float64) float64 { return pct(xs, 50) }

// timeQuiet times one call of f started right after a full collection.
// Sequential reference runs are timed this way: a collection running
// beside them on the other core slot would slow them by an amount that
// depends only on when it started.
func timeQuiet(f func()) float64 {
	runtime.GC()
	t0 := time.Now()
	f()
	return msSince(t0)
}

// beyond counts the samples strictly above the p-th percentile: the
// evidence a reported tail percentile rests on.
func beyond(xs []float64, p float64) int {
	cut := pct(xs, p)
	n := 0
	for _, x := range xs {
		if x > cut {
			n++
		}
	}
	return n
}

// geoMean is the geometric mean of the positive values of xs (0 when
// there are none).
func geoMean(xs []float64) float64 {
	var logs []float64
	for _, x := range xs {
		if x > 0 {
			logs = append(logs, math.Log(x))
		}
	}
	if len(logs) == 0 {
		return 0
	}
	return math.Exp(stats.Mean(logs))
}

func msSince(t time.Time) float64 { return durMS(time.Since(t)) }

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB is the process's peak resident set size in MB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// goSample is a snapshot of the Go runtime metrics the go.* layer
// metrics are deltas of.
type goSample struct {
	allocBytes     uint64
	gcCPU, totalCP float64
	schedLat       *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readGo() goSample {
	ss := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var g goSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = ss[1].Value.Float64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCP = ss[2].Value.Float64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64Histogram {
		g.schedLat = ss[3].Value.Float64Histogram()
	}
	return g
}

// goLayer fills the go.* layer metrics from two snapshots; jobs is the
// number of completed units of work between them.
func goLayer(layers map[string]float64, before, after goSample, jobs int) {
	layers["go.alloc_kb_per_job"] = ratio(float64(after.allocBytes-before.allocBytes)/1024, float64(jobs))
	layers["go.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.totalCP-before.totalCP)
	layers["go.sched_lat_p99_us"] = histDeltaP99(before.schedLat, after.schedLat) * 1e6
}

// histDeltaP99 is the 99th percentile of the samples a cumulative
// runtime histogram gained between two reads, taken at the upper edge of
// the bucket it falls in.
func histDeltaP99(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total) * 0.99)
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen > want {
			hi := after.Buckets[i+1]
			if hi > 1e9 { // the last bucket is unbounded
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// fingerprint identifies the host and the code a result was measured on.
// Results from different fingerprints are never compared.
func fingerprint() map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goarch":     runtime.GOARCH,
		"goos":       runtime.GOOS,
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     commit(),
	}
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

// commit identifies the code under test by a digest of the Go sources and
// module files below the working directory, the repository root. It
// needs no version control, so a checkout without .git identifies its
// code, and uncommitted edits change it.
func commit() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
			files = append(files, p)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
