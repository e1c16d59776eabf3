package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// refKernel is the frozen host-reference kernel: an edge-based gather /
// flux / scatter loop over an L2-resident synthetic graph, with the same
// mix of indirect loads, divisions, square roots and scattered updates as
// the solver's edge kernels. It must never change: every reported time is
// a multiple of it, so a change here would rescale the whole ledger.
type refKernel struct {
	edges [][2]int32
	nrm   [][3]float64
	w     [][5]float64
	res   [][5]float64
}

const (
	refVerts = 4096
	refEdges = 24576
	// refReps kernel sweeps make one reference sample: about 6 ms here, long
	// enough to average over the millisecond bursts of the host's
	// interference and short against the measurements it brackets.
	refReps = 16
	// refNominal is the duration of one reference sample on the reference
	// host: the quiet-core time of the Xeon 2.1 GHz this benchmark was
	// recorded on. Reported times are raw time * refNominal / (reference
	// sample taken around the measurement).
	refNominal = 5.9e-3
)

func newRefKernel(seed uint64) *refKernel {
	k := &refKernel{
		edges: make([][2]int32, refEdges),
		nrm:   make([][3]float64, refEdges),
		w:     make([][5]float64, refVerts),
		res:   make([][5]float64, refVerts),
	}
	x := seed*2862933555777941757 + 3037000493
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := range k.w {
		f := float64(next()%1000) / 1000
		k.w[i] = [5]float64{1 + 0.1*f, 0.6 + 0.05*f, 0.02 * f, 0.01 * f, 2.5 + 0.1*f}
	}
	for e := range k.edges {
		a := int32(next() % refVerts)
		b := (a + 1 + int32(next()%97)) % refVerts
		k.edges[e] = [2]int32{a, b}
		k.nrm[e] = [3]float64{0.3 + float64(next()%100)/500, 0.1, 0.05}
	}
	return k
}

func (k *refKernel) sweep() {
	for i := range k.res {
		k.res[i] = [5]float64{}
	}
	for e, ed := range k.edges {
		a, b := &k.w[ed[0]], &k.w[ed[1]]
		n := &k.nrm[e]
		ra, rb := 1/a[0], 1/b[0]
		pa := 0.4 * (a[4] - 0.5*(a[1]*a[1]+a[2]*a[2]+a[3]*a[3])*ra)
		pb := 0.4 * (b[4] - 0.5*(b[1]*b[1]+b[2]*b[2]+b[3]*b[3])*rb)
		qa := (a[1]*n[0] + a[2]*n[1] + a[3]*n[2]) * ra
		qb := (b[1]*n[0] + b[2]*n[1] + b[3]*n[2]) * rb
		lam := 0.5 * (math.Abs(qa) + math.Abs(qb) + math.Sqrt(1.4*pa*ra) + math.Sqrt(1.4*pb*rb))
		var f [5]float64
		f[0] = 0.5*(a[0]*qa+b[0]*qb) - lam*(b[0]-a[0])
		f[1] = 0.5*(a[1]*qa+b[1]*qb+(pa+pb)*n[0]) - lam*(b[1]-a[1])
		f[2] = 0.5*(a[2]*qa+b[2]*qb+(pa+pb)*n[1]) - lam*(b[2]-a[2])
		f[3] = 0.5*(a[3]*qa+b[3]*qb+(pa+pb)*n[2]) - lam*(b[3]-a[3])
		f[4] = 0.5*((a[4]+pa)*qa+(b[4]+pb)*qb) - lam*(b[4]-a[4])
		r0, r1 := &k.res[ed[0]], &k.res[ed[1]]
		for c := 0; c < 5; c++ {
			r0[c] += f[c]
			r1[c] -= f[c]
		}
	}
}

// host samples the reference kernel around measurements. The vCPUs of the
// recording host each slow down, independently, by 1.3 to 2 times for
// seconds to minutes at a time; a measurement is reported as a multiple of
// the reference samples taken around it (series.quiet), which removes most
// of that factor whichever state the host was in.
type host struct {
	kernels []*refKernel // one per thread, so concurrent samples share nothing
	single  []float64    // every one-thread sample, seconds, for bench.host_ref_ms
}

func newHost(threads int) *host {
	h := &host{}
	for i := 0; i < threads; i++ {
		h.kernels = append(h.kernels, newRefKernel(uint64(i+1)))
	}
	return h
}

// sample times refReps sweeps on each of threads goroutines at once and
// returns the wall time until the last one finishes, which is what a
// fork/join engine of that width would see.
func (h *host) sample(threads int) float64 {
	t0 := time.Now()
	if threads <= 1 {
		for r := 0; r < refReps; r++ {
			h.kernels[0].sweep()
		}
		d := time.Since(t0).Seconds()
		h.single = append(h.single, d)
		return d
	}
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(k *refKernel) {
			defer wg.Done()
			for r := 0; r < refReps; r++ {
				k.sweep()
			}
		}(h.kernels[i])
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// around runs f between two reference samples on the given thread count and
// returns their mean: the reference time that belongs to whatever was
// timed inside f.
func (h *host) around(threads int, f func()) float64 {
	before := h.sample(threads)
	f()
	return 0.5 * (before + h.sample(threads))
}

// time measures one call of f into s.
func (h *host) time(threads int, s *series, f func()) {
	var raw float64
	ref := h.around(threads, func() {
		t0 := time.Now()
		f()
		raw = time.Since(t0).Seconds()
	})
	s.add(raw, ref)
}

// fingerprint is recorded in every output so that two records can be told
// to come from the same kind of host.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	L2         string `json:"l2_cache"`
	L3         string `json:"l3_cache"`
}

func readFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     readCommit(),
		L2:         readCache(2),
		L3:         readCache(3),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				fp.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return fp
}

// readCommit resolves HEAD by hand: the benchmark also runs in checkouts
// that are not git repositories, where the answer is "unknown".
func readCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(".git/" + name)
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

func readCache(level int) string {
	for idx := 0; idx < 8; idx++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(idx) + "/"
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		if size, err := os.ReadFile(dir + "size"); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
