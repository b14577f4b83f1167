// Command perfbench is the repository's benchmark. It runs one named
// workload in-process for a fixed time, checks every output against a
// golden file or an untimed in-process reference, and prints its metrics
// as one JSON object on the last line of standard output:
//
//	perfbench --workload repro-all|sweep-ooo|serve-mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 the object carries the end-to-end metrics listed in
// BENCHMARK.json. With --trace 1 the workload runs once untraced and once
// traced — spans recorded around the calls into each layer, from this
// package only — and the object carries the per-layer metrics instead.
// Diagnostic lines (host steal, CPU/wall, per-metric quartiles across the
// run's passes, percentile sample counts) precede the JSON line.
//
// Load comes from this one process: GOMAXPROCS, the simulation worker
// count and the HTTP client connection count are all min(NumCPU, 2), so
// runs on bigger hosts measure the same configuration.
//
// perfbench/run.sh builds the binary from the checkout and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS and every worker or connection count.
const maxProcs = 2

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// root is the checkout root, results/ and perfbench/golden/ are read
	// from it: the working directory, or .. for the package tests. out
	// receives the span dump of a traced run.
	root, out string
	// commits and strikes override the workloads' sizes (0 = the sizes
	// BENCHMARK.json describes); only the package's own smoke tests set
	// them, and any override switches every check to an untimed reference.
	commits uint64
	strikes int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one workload run fills in.
type bench struct {
	opts  options
	procs int
	tr    *tracer // nil unless traced

	attempted, failed int
	metrics           map[string]metric
	notes             []string

	serve bool      // set-up includes standing up a server
	setup []float64 // set-up repetitions, seconds
}

// check counts one operation, failed when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.note("MISMATCH "+format, args...)
	}
}

// checkLines compares output line by line, counting one operation per
// expected line.
func (b *bench) checkLines(what string, got, want []byte) {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range w {
		ok := i < len(g) && g[i] == w[i]
		b.check(ok, "%s line %d", what, i+1)
	}
	if len(g) > len(w) {
		b.check(false, "%s has %d extra lines", what, len(g)-len(w))
	}
}

func (b *bench) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(context.Context, *bench) error
}{
	"repro-all":   {runRepro, traceRepro},
	"sweep-ooo":   {runSweep, traceSweep},
	"serve-mixed": {runServe, traceServe},
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "repro-all, sweep-ooo or serve-mixed")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for span dumps")
	fs.Parse(os.Args[1:])
	o.root, o.trace = ".", trace == 1
	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fs.Usage()
		os.Exit(2)
	}
	res, notes, err := run(context.Background(), o)
	for _, n := range notes {
		fmt.Println("# " + n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload run and assembles its result.
func run(ctx context.Context, o options) (result, []string, error) {
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	b := &bench{opts: o, procs: procs, metrics: map[string]metric{}}
	w := workloads[o.workload]
	steal0, stealOK := readSteal()
	var err error
	if o.trace {
		b.tr = newTracer()
		err = w.traced(ctx, b)
	} else {
		err = w.run(ctx, b)
	}
	if err != nil {
		return result{}, b.notes, fmt.Errorf("%s: %w", o.workload, err)
	}
	if stealOK {
		if steal1, ok := readSteal(); ok {
			frac := steal1.fracSince(steal0)
			b.note("host steal %.1f%% of CPU ticks during the run", 100*frac)
			if o.trace {
				b.set("host.steal_frac", frac)
			}
		}
	}
	if o.trace {
		attempted := max(b.attempted, 1)
		b.set("failed_frac", float64(b.failed)/float64(attempted))
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
		if err := b.tr.write(path); err != nil {
			return result{}, b.notes, err
		}
		b.note("spans written to %s", path)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	var missing []string
	for _, d := range want {
		if _, ok := b.metrics[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return result{}, b.notes, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	for name := range b.metrics {
		if !declaredIn(want, name) {
			delete(b.metrics, name)
		}
	}
	return result{
		Correct:   b.attempted > 0 && b.failed == 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, b.notes, nil
}

// timeIt returns how long f took.
func timeIt(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}
