// Command perfbench is the repository's benchmark. It drives one workload
// of the Slingshot simulator for a fixed host time and prints host-time
// and virtual-time end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1), then one JSON result line. README.md documents the
// workloads, the metrics and the layer → metric → workload map; run.sh
// builds and runs it:
//
//	bash perfbench/run.sh --workload cell-failover --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"slingshot/internal/mem"
	"slingshot/internal/par"
)

// procs pins GOMAXPROCS, the par worker count and the fleet's shard count,
// capped at the machine's CPUs (the reference machine has 2).
var procs = min(2, runtime.NumCPU())

// profileHz is the traced run's CPU-profile sampling rate.
const profileHz = 500

// stepWindow is how many of a run's latest iterations keep their per-step
// host times for the step percentiles. A fixed window keeps the driver's
// own memory, and so peak_rss_mb, independent of how many iterations fit
// in the run.
const stepWindow = 64

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "host seconds to measure")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	)
	flag.Parse()
	out, err := run(*name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

func run(name string, seed uint64, seconds int, traced bool) (string, error) {
	mk, ok := workloads[name]
	if !ok {
		return "", fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return "", fmt.Errorf("--seconds must be at least 1 (got %d)", seconds)
	}
	env, err := pinEnvironment()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d seconds %d trace %v\n%s", name, seed, seconds, traced, env)

	budget := time.Duration(seconds) * time.Second
	if !traced {
		s, err := measure(mk, seed, budget, nil, &b)
		if err != nil {
			return "", err
		}
		return s.report(endToEnd, s.endToEnd(), &b)
	}

	// Traced run: an untraced phase gives the baseline for the tracing
	// overhead and the allocation, GC and core-utilisation figures; the
	// traced phase (wrappers recording spans, CPU profile on) gives the
	// layer shares and span timings.
	plain, err := measure(mk, seed, budget*2/5, nil, &b)
	if err != nil {
		return "", err
	}
	tr := newTracer()
	var prof bytes.Buffer
	// 500 Hz instead of pprof's 100 Hz resolves the smaller layers; the
	// runtime warns on stderr that StartCPUProfile cannot reset the rate.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return "", err
	}
	withSpans, err := measure(mk, seed, budget-budget*2/5, tr, &b)
	pprof.StopCPUProfile()
	if err != nil {
		return "", err
	}
	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return "", err
	}
	spanFile := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", name, seed))
	if err := tr.write(spanFile); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(&b, "spans %s\nprofile samples %d\n", spanFile, len(p.samples))
	for l, a := range tr.totals() {
		fmt.Fprintf(&b, "span %-9s calls %d total_s %.3f self_ns_per_call %.1f\n",
			spanNames[l], a.count, float64(a.totalNs)/1e9, a.selfNsPerCall())
	}
	all := plain.merge(withSpans)
	if got, want := withSpans.its[0].fingerprint, plain.its[0].fingerprint; got != want {
		all.failed++
		fmt.Fprintf(&b, "fail traced fingerprint %016x differs from untraced %016x\n", got, want)
	}
	return all.report(perLayer, layerValues(plain, withSpans, tr, p), &b)
}

// pinEnvironment fixes the execution knobs and records the environment.
// Timing a build with the pool leak detector armed (SLINGSHOT_POOL=debug
// or -race) would measure the detector, so those are refused.
func pinEnvironment() (string, error) {
	if mem.DetectorArmed() {
		return "", errors.New("refusing to time with the pool leak detector armed (SLINGSHOT_POOL=debug or -race)")
	}
	goamd64, race := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				goamd64 = s.Value
			case "-race":
				race = s.Value == "true"
			}
		}
	}
	if race {
		return "", errors.New("refusing to time a -race build")
	}
	runtime.GOMAXPROCS(procs)
	par.SetWorkers(procs)
	pool := os.Getenv("SLINGSHOT_POOL")
	if pool == "" {
		pool = "on"
	}
	return fmt.Sprintf("env gomaxprocs=%d shards=%d workers=%d pool=%s go=%s goamd64=%s cpu=%q\n",
		runtime.GOMAXPROCS(0), procs, par.Workers(), pool, runtime.Version(), goamd64, cpuModel()), nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// iteration is one set-up-run-finish pass of a workload.
type iteration struct {
	setup       time.Duration
	wall        time.Duration // measured steps only
	steps       int
	p99         float64       // step host time, µs, nearest rank (logged)
	cpu         time.Duration // process CPU over the measured steps
	fingerprint uint64
	out         outcome
}

// sample is everything one measure call saw.
type sample struct {
	cells    int
	its      []iteration
	failed   int
	allocs   uint64 // bytes allocated during measured steps
	mallocs  uint64
	pausesUs []float64
	stepUs   [][]float64 // per-step host µs of the latest stepWindow iterations
}

// measure runs iterations of a workload (same seed each time) until the
// budget is spent, timing each step. An iteration is a failed operation
// when it errors, breaks an invariant, or its fingerprint differs from
// the first iteration's.
func measure(mk func() workload, seed uint64, budget time.Duration, tr *tracer, log *strings.Builder) (*sample, error) {
	s := &sample{}
	start := time.Now()
	for len(s.its) == 0 || time.Since(start) < budget {
		it, err := runIteration(mk(), seed, tr, s)
		if err != nil {
			s.failed++
			fmt.Fprintf(log, "fail iteration %d: %v\n", len(s.its), err)
		}
		if it.out.violations > 0 {
			s.failed++
			fmt.Fprintf(log, "fail iteration %d: %d invariant violations, first: %s\n", len(s.its), it.out.violations, it.out.violation)
		}
		if len(s.its) > 0 && it.fingerprint != s.its[0].fingerprint {
			s.failed++
			fmt.Fprintf(log, "fail iteration %d: fingerprint %016x differs from %016x\n",
				len(s.its), it.fingerprint, s.its[0].fingerprint)
		}
		s.its = append(s.its, it)
		if err != nil && len(s.its) == 1 && it.steps == 0 {
			return nil, fmt.Errorf("first iteration failed before measuring: %w", err)
		}
	}
	return s, nil
}

func runIteration(w workload, seed uint64, tr *tracer, s *sample) (iteration, error) {
	var it iteration
	// Collect the previous iteration's garbage outside the measured
	// window, so every iteration starts from the same heap.
	runtime.GC()
	t0 := time.Now()
	if err := w.setup(seed, tr); err != nil {
		return it, fmt.Errorf("setup: %w", err)
	}
	it.setup = time.Since(t0)
	s.cells = w.cells()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	if tr != nil {
		tr.setActive(true)
	}
	t1 := time.Now()
	step := w.step
	if tr != nil {
		step = func() (bool, error) { return tr.stepSpan(w.step) }
	}
	slot := len(s.its) % stepWindow
	if slot == len(s.stepUs) {
		s.stepUs = append(s.stepUs, nil)
	}
	stepUs := s.stepUs[slot][:0]
	for {
		ts := time.Now()
		done, err := step()
		stepUs = append(stepUs, float64(time.Since(ts).Nanoseconds())/1e3)
		it.steps++
		if err != nil {
			s.stepUs[slot] = stepUs
			return it, fmt.Errorf("step %d: %w", it.steps, err)
		}
		if done {
			break
		}
	}
	it.wall = time.Since(t1)
	s.stepUs[slot] = stepUs
	it.p99 = percentile(append([]float64(nil), stepUs...), 99)
	if tr != nil {
		tr.setActive(false)
	}
	it.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	s.allocs += ms1.TotalAlloc - ms0.TotalAlloc
	s.mallocs += ms1.Mallocs - ms0.Mallocs
	for gc := ms0.NumGC + 1; gc <= ms1.NumGC && ms1.NumGC-gc < 256; gc++ {
		s.pausesUs = append(s.pausesUs, float64(ms1.PauseNs[(gc+255)%256])/1e3)
	}

	out, err := w.finish()
	it.out = out
	it.fingerprint = out.fingerprint()
	return it, err
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func (s *sample) merge(o *sample) *sample {
	m := *s
	m.its = append(append([]iteration(nil), s.its...), o.its...)
	m.failed += o.failed
	return &m
}

// rate is an iteration's simulated cell-TTIs per host second of measured
// stepping.
func (it iteration) rate(cells int) float64 {
	return float64(it.steps*cells) / it.wall.Seconds()
}

// overIterations is the median of f over the run's iterations that
// completed their steps, which keeps one disturbed iteration from moving
// a run's figure.
func (s *sample) overIterations(f func(iteration) float64) float64 {
	var xs []float64
	for _, it := range s.its {
		if it.wall > 0 {
			xs = append(xs, f(it))
		}
	}
	return median(xs)
}

// stepPercentile is the p-th percentile, over step indices, of each
// step's median host time across the iterations in the step window. The
// iterations repeat one seed, so step k does the same work in each: the
// per-step median drops transient interference from the host and keeps
// the workload's own heavy steps.
func (s *sample) stepPercentile(p float64) float64 {
	var meds, at []float64
	for k := 0; ; k++ {
		at = at[:0]
		for _, us := range s.stepUs {
			if k < len(us) {
				at = append(at, us[k])
			}
		}
		if len(at) == 0 {
			return percentile(meds, p)
		}
		meds = append(meds, percentile(at, 50))
	}
}

func (s *sample) cellTTIRate() float64 {
	return s.overIterations(func(it iteration) float64 { return it.rate(s.cells) })
}

func (s *sample) endToEnd() map[string]float64 {
	first := s.its[0].out
	return map[string]float64{
		"setup_s":          s.overIterations(func(it iteration) float64 { return it.setup.Seconds() }),
		"cell_tti_per_s":   s.cellTTIRate(),
		"step_p50_us":      s.stepPercentile(50),
		"step_p99_us":      s.stepPercentile(99),
		"peak_rss_mb":      peakRSSMB(),
		"goodput_mbps":     first.goodputMbps,
		"availability_pct": first.availPct,
	}
}

// layerValues assembles the per-layer ledger: CPU shares from the profile
// of the traced phase, span timings from its wrappers, allocation, GC and
// core utilisation from the untraced phase, and work counts from the
// program's statistics (identical in both phases).
func layerValues(plain, withSpans *sample, tr *tracer, p *cpuProfile) map[string]float64 {
	v := map[string]float64{}
	for layer, pct := range bucketProfile(p) {
		if layer == "runtime.gc" {
			v["runtime.gc_cpu_pct"] = pct
		} else {
			v[layer+".cpu_pct"] = pct
		}
	}
	v["runtime.gc_pause_p99_us"] = percentile(plain.pausesUs, 99)

	c := plain.its[0].out.counts
	ttis := float64(c.CellTTIs)
	v["fec.work_units_per_cell_tti"] = float64(c.WorkUnits) / ttis
	v["fec.decode_fail_pct"] = pct(c.DecodeFail, c.DecodeOK+c.DecodeFail)
	v["sim.events_per_cell_tti"] = float64(c.Events) / ttis
	v["phy.null_slot_pct"] = pct(c.NullSlots, c.Slots)
	v["netmodel.frames_per_cell_tti"] = float64(c.Frames) / ttis
	v["l2.harq_retx_pct"] = pct(c.HARQRetx, c.HARQTx)

	var steps int
	var wall, cpu time.Duration
	for _, it := range plain.its {
		steps += it.steps * plain.cells
		wall += it.wall
		cpu += it.cpu
	}
	v["mem.alloc_bytes_per_cell_tti"] = float64(plain.allocs) / float64(steps)
	v["mem.mallocs_per_cell_tti"] = float64(plain.mallocs) / float64(steps)
	v["par.core_util_pct"] = 100 * cpu.Seconds() / (wall.Seconds() * float64(procs))

	agg := tr.totals()
	v["switchsim.frame_ns"] = agg[spanSwitch].selfNsPerCall()
	v["orion.frame_ns"] = agg[spanOrion].selfNsPerCall()
	v["phy.frame_ns"] = agg[spanPHY].selfNsPerCall()
	v["ru.frame_ns"] = agg[spanRU].selfNsPerCall()
	v["l2.fapi_ns"] = agg[spanL2].selfNsPerCall()
	v["trace.overhead_pct"] = 100 * (plain.cellTTIRate()/withSpans.cellTTIRate() - 1)
	return v
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// report renders the run: per-iteration lines, the workload's fidelity
// metrics, the fingerprint, every metric, and the JSON result line.
func (s *sample) report(defs []metricDef, values map[string]float64, b *strings.Builder) (string, error) {
	var setups, rates, p99s []string
	for _, it := range s.its {
		setups = append(setups, fmt.Sprintf("%.3f", it.setup.Seconds()))
		rates = append(rates, fmt.Sprintf("%.0f", it.rate(s.cells)))
		p99s = append(p99s, fmt.Sprintf("%.1f", it.p99))
	}
	fmt.Fprintf(b, "iterations %d steps_per_iteration %d\nsetups_s [%s]\ncell_tti_per_s [%s]\nstep_p99_us [%s]\n",
		len(s.its), s.its[0].steps, strings.Join(setups, " "), strings.Join(rates, " "), strings.Join(p99s, " "))
	first := s.its[0]
	for _, f := range first.out.fidelity {
		fmt.Fprintf(b, "fidelity %-28s %16.4f %s\n", f.name, f.value, f.unit)
	}
	fmt.Fprintf(b, "fingerprint %016x\n", first.fingerprint)
	r, err := newResult(len(s.its), s.failed, defs, values)
	if err != nil {
		return "", err
	}
	out, err := r.render(defs)
	if err != nil {
		return "", err
	}
	return b.String() + out, nil
}
