package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"softerror/internal/cache"
	"softerror/internal/core"
	"softerror/internal/server"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

// decl declares one metric; BENCHMARK.json lists the same names and units
// (the package tests pin the correspondence).
type decl struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of repro,
// sweep or seratd waits for and pays, on every workload.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"peak_rss_mb", "MB"},
}

// serveRoutes are the request classes of serve-mixed; each gets handler
// and transport percentiles in the traced run.
var serveRoutes = []string{"eval_miss", "eval_hit", "sweep", "job_events", "job_csv", "bound"}

// perLayer are the metrics of a traced run. A layer the workload's traced
// path does not exercise reads 0.
var perLayer = func() []decl {
	d := []decl{
		{"workload.decode_s", "s"},
		{"cache.warm_template_s", "s"},
		{"cache.clone_s", "s"},
		{"pipeline.inorder_batch_s", "s"},
		{"pipeline.inorder_ns_per_cycle", "ns"},
		{"pipeline.ooo_batch_s", "s"},
		{"pipeline.ooo_ns_per_cycle", "ns"},
		{"pipeline.solo_s", "s"},
		{"pipeline.lanes_per_pass", "count"},
		{"ace.finish_inorder_s", "s"},
		{"ace.finish_ooo_s", "s"},
		{"fault.campaign_s", "s"},
		{"fault.strikes_per_s", "1/s"},
		{"experiments.render_s", "s"},
		{"core.suite_memo_hit_ratio", "frac"},
		{"core.sim_mcycles", "Mcycles"},
		{"static.bound_s", "s"},
		{"sweep.grid_s", "s"},
		{"sweep.cores_busy", "cores"},
		{"server.eval_miss_p50_ms", "ms"},
		{"server.eval_miss_p90_ms", "ms"},
		{"server.eval_hit_p50_us", "us"},
		{"server.eval_hit_p99_us", "us"},
		{"server.bound_p50_ms", "ms"},
		{"server.sweep_csv_p50_s", "s"},
		{"server.eval_miss_n", "count"},
		{"server.eval_hit_n", "count"},
		{"server.bound_n", "count"},
		{"server.sweep_n", "count"},
		{"server.cache_hit_ratio", "frac"},
		{"server.rejected", "count"},
		{"server.live_heap_mb_end", "MB"},
		{"server.jobs_retained", "count"},
	}
	for _, r := range serveRoutes {
		d = append(d,
			decl{"server.handler_p50_us." + r, "us"},
			decl{"server.transport_p50_us." + r, "us"})
	}
	return append(d,
		decl{"runtime.alloc_mb", "MB"},
		decl{"runtime.gc_cycles", "count"},
		decl{"runtime.gc_cpu_frac", "frac"},
		decl{"host.steal_frac", "frac"},
		decl{"trace.overhead_frac", "frac"},
		decl{"failed_frac", "frac"},
	)
}()

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]decl{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

func declaredIn(ds []decl, name string) bool {
	for _, d := range ds {
		if d.name == name {
			return true
		}
	}
	return false
}

// zeroLayers sets every per-layer metric to 0, so each traced workload
// only fills in the layers it measures.
func (b *bench) zeroLayers() {
	for _, d := range perLayer {
		b.set(d.name, 0)
	}
}

// cpuSeconds is the process's user+sys CPU time. Unlike wall time it
// excludes time the hypervisor steals from the VM.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTicks is the aggregate line of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

func readSteal() (cpuTicks, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

func (t cpuTicks) fracSince(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pass is one timed repetition of a workload's script.
type pass struct {
	wall, cpu float64
	cycles    uint64
}

// timePass runs f once and measures it.
func timePass(f func() error) (pass, error) {
	c0, cpu0 := core.CyclesSimulated(), cpuSeconds()
	wall, err := timeIt(f)
	return pass{wall: wall, cpu: cpuSeconds() - cpu0, cycles: core.CyclesSimulated() - c0}, err
}

// minPasses is the fewest passes a run medians over.
const minPasses = 3

// measure runs f for a fixed number of passes — --seconds over nominal, one
// pass's time on a 2-vCPU reference host, and at least minPasses — so the
// run measures for about --seconds and every run of the same --seconds does
// the same work however fast the code is. It reports the medians as
// end-to-end metrics.
func (b *bench) measure(nominal float64, f func() error) error {
	n := max(minPasses, int(math.Round(b.opts.seconds/nominal)))
	var ps []pass
	for len(ps) < n {
		p, err := timePass(f)
		if err != nil {
			return err
		}
		ps = append(ps, p)
		if err := b.setupReps(setupBetween); err != nil {
			return err
		}
	}
	var wall, cpu, rate []float64
	for _, p := range ps {
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		rate = append(rate, float64(p.cycles)/1e6/p.wall)
	}
	b.set("wall_s", median(wall))
	b.set("cpu_s", median(cpu))
	b.set("sim_mcycles_per_s", median(rate))
	b.set("peak_rss_mb", peakRSSMB())
	b.spread("setup_s", b.setup)
	b.spread("wall_s", wall)
	b.spread("cpu_s", cpu)
	b.spread("sim_mcycles_per_s", rate)
	b.note("cpu/wall %.2f over %d passes", median(cpu)/median(wall), len(ps))
	return nil
}

// spread notes a metric's quartiles across the run's samples.
func (b *bench) spread(name string, xs []float64) {
	q1, q2, q3 := quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
	rel := 0.0
	if q2 != 0 {
		rel = (q3 - q1) / q2
	}
	b.note("%-20s n=%-4d q1=%-12.6g median=%-12.6g q3=%-12.6g iqr/median=%.3f",
		name, len(xs), q1, q2, q3, rel)
}

// Set-up is repeated: setupFirst times before the first pass and
// setupBetween times after each pass, and setup_s is the median of all the
// repetitions. Spreading them over the run keeps a burst of load from a
// neighbouring process from setting the figure, and repeating them takes
// the first-touch page faults of a fresh process out of it. Each
// repetition is charged its process CPU time, not wall time: the work is
// ~10 ms, and on a shared host the wall time of so short an interval
// mostly measures how much of it the hypervisor stole.
const (
	setupFirst   = 9
	setupBetween = 2
)

// measureSetup times the process's one-time work: the warm cache template
// (first use, reported as cache.warm_template_s when traced), then
// setupFirst repetitions of the set-up itself (setupReps); measure adds the
// rest and reports setup_s.
func (b *bench) measureSetup(serve bool) error {
	warm, _ := timeIt(func() error { workload.WarmedDefault(); return nil })
	if b.tr != nil {
		b.set("cache.warm_template_s", warm)
	}
	b.serve = serve
	return b.setupReps(setupFirst)
}

// setupReps times n repetitions of building and warming the default
// hierarchy, parsing the roster and, for serving workloads, standing up a
// server on loopback and answering its first /healthz.
func (b *bench) setupReps(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		cpu0 := cpuSeconds()
		h := cache.MustNewDefault()
		workload.WarmCaches(h)
		_, err := spec.ParseList("")
		if err == nil && b.serve {
			err = serverUp(b.procs)
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setup = append(b.setup, cpuSeconds()-cpu0)
	}
	b.set("setup_s", median(b.setup))
	return nil
}

// serverUp starts a server on loopback, waits for its first /healthz and
// shuts it down again.
func serverUp(procs int) error {
	srv := server.New(server.Config{Workers: procs})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()
	defer c.CloseIdleConnections()
	resp, err := c.Get(ts.URL + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// memStats returns the runtime's allocation counters.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// setRuntime reports the allocation and GC work between m0 and now.
func (b *bench) setRuntime(m0 runtime.MemStats) {
	m := memStats()
	b.set("runtime.alloc_mb", float64(m.TotalAlloc-m0.TotalAlloc)/(1<<20))
	b.set("runtime.gc_cycles", float64(m.NumGC-m0.NumGC))
	b.set("runtime.gc_cpu_frac", m.GCCPUFraction)
}

// setOverhead reports the traced pass's extra wall time over the untraced.
func (b *bench) setOverhead(untraced, traced float64) {
	b.set("trace.overhead_frac", (traced-untraced)/untraced)
	b.note("untraced pass %.3fs, traced pass %.3fs", untraced, traced)
}
