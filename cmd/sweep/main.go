// Command sweep runs a design-space grid over the simulator and writes one
// long-format CSV row per (benchmark × policy × IQ size × issue discipline)
// cell — ready for plotting or pivoting.
//
//	sweep -benches mcf,ammp -policies baseline,squash-l1 -iqsizes 16,32,64,128 -out grid.csv
//
// Long grids can be checkpointed and resumed: -checkpoint snapshots completed
// cells as they finish, SIGINT flushes a final snapshot, and a rerun with
// -resume re-simulates only the missing cells — producing a CSV byte-identical
// to an uninterrupted run, because every cell is deterministic in its index.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 partial
// completion (interrupted or poisoned cells, checkpoint written).
package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"softerror/internal/checkpoint"
	"softerror/internal/cli"
	"softerror/internal/core"
	"softerror/internal/par"
	"softerror/internal/spec"
	"softerror/internal/sweep"
)

func main() {
	cli.Main("sweep", run)
}

func run(args []string) error {
	d := cli.NewDriver("sweep", "sweep [flags]")
	fs := d.FS
	benchList := fs.String("benches", "", "comma-separated benchmarks (default: all 26)")
	polList := fs.String("policies", "baseline,squash-l1,squash-l0", "comma-separated policies")
	sizeList := fs.String("iqsizes", "64", "comma-separated instruction-queue sizes")
	oooList := fs.String("ooo", "false", "comma-separated issue disciplines (false,true)")
	commits := fs.Uint64("commits", core.DefaultCommits, "committed instructions per cell")
	out := fs.String("out", "", "output CSV path (default: stdout)")
	quiet := fs.Bool("q", false, "suppress progress on stderr")
	ckPath := fs.String("checkpoint", "", "snapshot completed cells to this file; removed on success")
	resume := fs.Bool("resume", false, "resume from an existing -checkpoint snapshot")
	onError := fs.String("onerror", "fail", "failed-cell policy: fail (cancel grid) or continue (finish other cells)")
	prof := cli.NewProfile(fs)
	if err := d.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	policy, err := par.ParsePolicy(*onError)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	g := &sweep.Grid{Commits: *commits, Workers: d.Jobs(), OnError: policy}
	if *resume && *ckPath == "" {
		return cli.Usagef("-resume requires -checkpoint")
	}
	benches, err := spec.ParseList(*benchList)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	g.Benches = benches
	for _, p := range strings.Split(*polList, ",") {
		pol, err := core.ParsePolicy(strings.TrimSpace(p))
		if err != nil {
			return cli.Usagef("%v", err)
		}
		g.Policies = append(g.Policies, pol)
	}
	for _, s := range strings.Split(*sizeList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return cli.Usagef("bad IQ size %q", s)
		}
		g.IQSizes = append(g.IQSizes, n)
	}
	for _, s := range strings.Split(*oooList, ",") {
		v, err := strconv.ParseBool(strings.TrimSpace(s))
		if err != nil {
			return cli.Usagef("bad ooo value %q", s)
		}
		g.OutOfOrder = append(g.OutOfOrder, v)
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	var ck *checkpoint.File[sweep.Row]
	if *ckPath != "" {
		var err error
		ck, err = checkpoint.Open[sweep.Row](*ckPath, "sweep", g.Fingerprint(), g.Size(), *resume)
		if err != nil {
			return err
		}
		if *resume && !*quiet {
			fmt.Fprintf(os.Stderr, "sweep: resuming %s: %d/%d cells already done\n",
				*ckPath, ck.CountDone(), g.Size())
		}
	}

	progress := func(done, total int) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	rows, err := g.RunContext(ctx, ck, progress)
	if err != nil {
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		return finishPartial(rows, err, ck, *out)
	}

	if err := writeRows(*out, rows, nil); err != nil {
		return err
	}
	// The artefact is complete; the snapshot has served its purpose.
	return ck.Remove()
}

// finishPartial salvages what an interrupted or partially failed grid did
// produce: the valid rows go to the output (poisoned cells omitted), the
// per-cell failures go to stderr, and — when a checkpoint holds the completed
// work — the error is classified as partial so the exit code tells scripts a
// -resume rerun can finish the job.
func finishPartial(rows []sweep.Row, err error, ck *checkpoint.File[sweep.Row], out string) error {
	var tasks par.Errors
	if errors.As(err, &tasks) {
		skip := make(map[int]bool, len(tasks))
		for _, te := range tasks {
			skip[te.Index] = true
			fmt.Fprintf(os.Stderr, "sweep: cell failed: %v\n", te)
		}
		if werr := writeRows(out, rows, skip); werr != nil {
			return werr
		}
	}
	return cli.Partial(err, ck)
}

func writeRows(out string, rows []sweep.Row, skip map[int]bool) error {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return sweep.WriteCSVSkipping(w, rows, skip)
}
