// Benchgate is the repository's performance gate. It runs the benchmark of
// record, perfbench, on a base revision and on the working tree in
// alternating pairs, and judges every end-to-end metric BENCHMARK.json
// declares against that metric's bound:
//
//	go run ./scripts/benchgate [BASE]    (BASE defaults to HEAD)
//
// Run it from the repository root. The base is extracted with git archive
// into a temporary directory, which also holds each side's build, and
// which is removed on exit; nothing is written into the checkout. Each
// workload runs pairs times per side, with the side that runs first
// alternating, for runSeconds of measurement per run.
//
// A (workload, metric) fails when at least minWorse of the pairs are worse
// on the working tree and its median is worse than the base's by more than
// the metric's bound. A workload also fails when any working-tree run is
// not correct, or when the working tree's share of failed operations is
// higher than the base's. One line is printed per verdict; the exit status
// is 1 when any verdict fails.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

const (
	pairs    = 10
	minWorse = 8
	// runSeconds is each run's measurement time, shorter than
	// BENCHMARK.json's run_seconds. perfbench never runs fewer than three
	// passes, so repro-all and sweep-ooo run three at either length, and
	// serve-mixed runs five rounds instead of twenty; the paired rule
	// holds at it (CHANGES.md has the same-code and seeded-slowdown
	// trials).
	runSeconds = "5"
)

// metricSpec is one end-to-end metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // tolerated relative worsening of the median
}

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	if err == nil && (len(s.Workloads) == 0 || len(s.EndToEnd) == 0) {
		err = fmt.Errorf("%s declares no workloads or no end-to-end metrics", path)
	}
	return s, err
}

// result is the JSON object perfbench prints on its last line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// pair is one base run and one working-tree run of the same workload.
type pair struct{ base, change result }

// verdict is the judgement of one metric (or, with metric "correct", of a
// workload's correctness) over a workload's pairs.
type verdict struct {
	metric string
	fail   bool
	line   string
}

// judge applies the gate's rule to one workload's pairs.
func judge(workload string, metrics []metricSpec, ps []pair) []verdict {
	var out []verdict
	for _, m := range metrics {
		var base, change []float64
		worse := 0
		for _, p := range ps {
			b, c := p.base.Metrics[m.Name].Value, p.change.Metrics[m.Name].Value
			base, change = append(base, b), append(change, c)
			if (m.Better == "higher" && c < b) || (m.Better != "higher" && c > b) {
				worse++
			}
		}
		bq, cq := quartiles(base), quartiles(change)
		rel := 0.0
		if bq[1] != 0 {
			rel = (cq[1] - bq[1]) / bq[1]
		}
		if m.Better == "higher" {
			rel = -rel
		}
		fail := worse >= minWorse && rel > m.Bound
		out = append(out, verdict{m.Name, fail, fmt.Sprintf(
			"%-12s %-18s base %s  change %s  worse %+6.1f%% (bound %.0f%%)  pairs worse %2d/%d  %s",
			workload, m.Name, fmtQ(bq), fmtQ(cq), 100*rel, 100*m.Bound, worse, len(ps), verdictWord(fail))})
	}
	var bf, ba, cf, ca, incorrect int
	for _, p := range ps {
		bf, ba = bf+p.base.Failed, ba+p.base.Attempted
		cf, ca = cf+p.change.Failed, ca+p.change.Attempted
		if !p.change.Correct {
			incorrect++
		}
	}
	// failed share of the change above the base's, cross-multiplied so an
	// empty side (no attempts) needs no special case
	fail := incorrect > 0 || cf*max(ba, 1) > bf*max(ca, 1)
	out = append(out, verdict{"correct", fail, fmt.Sprintf(
		"%-12s %-18s base failed %d/%d  change failed %d/%d  change runs not correct %d/%d  %s",
		workload, "correct", bf, ba, cf, ca, incorrect, len(ps), verdictWord(fail))})
	return out
}

func verdictWord(fail bool) string {
	if fail {
		return "FAIL"
	}
	return "ok"
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	if len(s) == 0 {
		return q
	}
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%-10.4g [%.4g %.4g]", q[1], q[0], q[2])
}

func main() {
	if len(os.Args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [BASE]")
		os.Exit(2)
	}
	base := "HEAD"
	if len(os.Args) == 2 {
		base = os.Args[1]
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	failed, err := gate(ctx, base)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	if failed {
		fmt.Println("benchgate: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

// gate runs the pairs against base and reports whether any verdict failed.
func gate(ctx context.Context, base string) (bool, error) {
	s, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	tarball := filepath.Join(tmp, "base.tar")
	if err := os.Mkdir(baseDir, 0o755); err != nil {
		return false, err
	}
	if _, err := command(ctx, ".", nil, "git", "archive", "-o", tarball, base); err != nil {
		return false, err
	}
	if _, err := command(ctx, ".", nil, "tar", "-xf", tarball, "-C", baseDir); err != nil {
		return false, err
	}
	fmt.Printf("benchgate: %s against the working tree, %d alternating pairs of %ss runs per workload\n",
		base, pairs, runSeconds)
	sides := []struct{ dir, target string }{
		{baseDir, filepath.Join(tmp, "base-build")},
		{".", filepath.Join(tmp, "change-build")},
	}
	got := make(map[string][]pair)
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(os.Stderr, "benchgate: pair %d/%d\n", i+1, pairs)
		for _, w := range s.Workloads {
			var p [2]result
			for k := range sides {
				side := (i + k) % 2 // even pairs run the base first
				p[side], err = perfbench(ctx, sides[side].dir, sides[side].target, w.Name)
				if err != nil {
					return false, err
				}
			}
			got[w.Name] = append(got[w.Name], pair{p[0], p[1]})
		}
	}
	failed := false
	for _, w := range s.Workloads {
		for _, v := range judge(w.Name, s.EndToEnd, got[w.Name]) {
			fmt.Println(v.line)
			failed = failed || v.fail
		}
	}
	return failed, nil
}

// perfbench builds and runs one untraced workload run in dir and parses its
// last line.
func perfbench(ctx context.Context, dir, target, workload string) (result, error) {
	out, err := command(ctx, dir, []string{"CARGO_TARGET_DIR=" + target},
		"bash", "perfbench/run.sh", "--workload", workload, "--seed", "1", "--seconds", runSeconds, "--trace", "0")
	var r result
	if err != nil {
		return r, err
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s in %s: %w", workload, dir, err)
	}
	return r, nil
}

// command runs name with args in dir and returns its standard output; its
// standard error is passed through.
func command(ctx context.Context, dir string, env []string, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	// On cancellation kill the whole process group: a build run.sh started
	// must not outlive the temporary directory it writes into.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return string(out), nil
}
