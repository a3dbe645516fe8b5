package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"qokit"
	"qokit/internal/costvec"
	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// host holds the facts printed next to every result.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	L2Bytes    int64  `json:"l2_bytes_summed"`
	L3Bytes    int64  `json:"l3_bytes_summed"`
	ProbeBytes int64  `json:"probe_array_bytes"`
	StateBytes int64  `json:"probe_state_bytes"`
}

func hostFacts() host {
	l2, l3 := cacheBytes()
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		L2Bytes:    l2,
		L3Bytes:    l3,
		StateBytes: 16 << labsN, // SoA: two float64 planes
	}
	// The triad arrays are at least 4× the summed L2 and never smaller
	// than the probed state.
	h.ProbeBytes = max(4*l2, h.StateBytes)
	return h
}

func (h host) String() string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s l2_summed=%d l3_summed=%d probe_array_bytes=%d probe_state_bytes=%d",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.L2Bytes, h.L3Bytes, h.ProbeBytes, h.StateBytes)
}

// cacheBytes sums the L2 and L3 sizes the OS reports, counting each
// shared cache once. Missing sysfs entries read as 0.
func cacheBytes() (l2, l3 int64) {
	seen := make(map[string]bool)
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu[0-9]*/cache/index[0-9]*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		if level != "2" && level != "3" {
			continue
		}
		id := level + ":" + readTrim(filepath.Join(d, "shared_cpu_list"))
		if seen[id] {
			continue
		}
		seen[id] = true
		size := parseSize(readTrim(filepath.Join(d, "size")))
		if level == "2" {
			l2 += size
		} else {
			l3 += size
		}
	}
	return l2, l3
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

// liveHeapBytes is the Go heap the workload holds at rest: the bytes
// still reachable after two collections (the second drops whatever
// sync.Pools kept through the first). Peak resident set size was tried
// first; it depends on when collections happen to run, and read 20 or
// 35 MB on the same distributed_opt run.
func liveHeapBytes() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// probeReps is how many times each probed kernel runs; the median is
// reported.
const probeReps = 7

// kernelProbe times the public statevec calls the labs_opt evolution
// spends its time in, at labs_opt's n and default worker count, plus a
// triad over arrays sized from the host's caches. Bytes are computed
// from array sizes (each pass reads and writes both planes of the
// state; the diagonal is read once), not measured.
func kernelProbe(rep *report, h host) {
	n := labsN
	pool := statevec.NewPool(0)
	diag := costvec.PrecomputePool(pool, poly.Compile(qokit.LABSTerms(n)), n)
	s := statevec.NewSoAUniform(n)
	dim := float64(int64(1) << n)
	stateB := 16 * dim // both planes
	diagB := 8 * dim
	rng := rand.New(rand.NewSource(1))
	gamma, beta := 0.1+0.01*rng.Float64(), 0.3+0.01*rng.Float64()

	kernels := []struct {
		name  string
		bytes float64
		fn    func()
	}{
		// Phase folded into the first F = 2 pass; ⌈n/2⌉ passes.
		{"statevec.fused_layer", float64((n+1)/2)*2*stateB + diagB, func() { s.ApplyPhaseThenUniformRXFused(pool, diag, gamma, beta) }},
		{"statevec.phase", 2*stateB + diagB, func() { s.PhaseDiag(pool, diag, gamma) }},
		{"statevec.mixer", float64(n) * 2 * stateB, func() { s.ApplyUniformRX(pool, beta) }},
		{"statevec.expectation", stateB + diagB, func() { _ = s.ExpectationDiag(pool, diag) }},
	}
	var fusedGBps float64
	for _, k := range kernels {
		k.fn() // warm
		ts := make([]float64, probeReps)
		for i := range ts {
			start := time.Now()
			k.fn()
			ts[i] = time.Since(start).Seconds()
		}
		t := median(ts)
		gbps := k.bytes / t / 1e9
		rep.set(k.name+"_s", t, "s")
		rep.set(k.name+"_gbps", gbps, "GB/s")
		if k.name == "statevec.fused_layer" {
			fusedGBps = gbps
		}
	}
	stream := triadGBps(int(h.ProbeBytes/8), runtime.GOMAXPROCS(0))
	rep.set("probe.stream_gbps", stream, "GB/s")
	rep.set("statevec.fused_layer_roofline_frac", fusedGBps/stream, "ratio")
	rep.set("probe.array_bytes", float64(h.ProbeBytes), "bytes")
	rep.note("kernel GB/s are computed from array sizes; the triad moves 24 B per element over three %d-byte arrays", h.ProbeBytes)
}

// triadGBps runs a[i] = b[i] + s·c[i] over elems-long arrays split
// across workers and returns the median computed bandwidth.
func triadGBps(elems, workers int) float64 {
	a := make([]float64, elems)
	b := make([]float64, elems)
	c := make([]float64, elems)
	for i := range b {
		b[i], c[i] = float64(i), float64(elems-i)
	}
	run := func() {
		var wg sync.WaitGroup
		chunk := (elems + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, elems)
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
	}
	run()
	ts := make([]float64, probeReps)
	for i := range ts {
		start := time.Now()
		run()
		ts[i] = time.Since(start).Seconds()
	}
	return 24 * float64(elems) / median(ts) / 1e9
}
