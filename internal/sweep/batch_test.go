package sweep

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"softerror/internal/checkpoint"
	"softerror/internal/par"
)

// rowsCSV renders a finished row set with the shared writer.
func rowsCSV(t *testing.T, rows []Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGridCancelMidBatchResumesPerCell pins the batched dispatch's crash
// contract: progress is checkpointed per landed cell. smallGrid's bench
// blocks are one batch group each; the chaos hook holds ammp's batch until
// the campaign is cancelled, and the first cell gzip-graphic's batch lands
// cancels it. The checkpoint must hold a strict, non-empty subset, and the
// resumed leg must re-derive the rest and render bytes identical to an
// uninterrupted run.
func TestGridCancelMidBatchResumesPerCell(t *testing.T) {
	g := smallGrid(t)
	g.Workers = 2
	want, err := g.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := rowsCSV(t, want)

	path := filepath.Join(t.TempDir(), "grid.ckpt")
	interrupted := smallGrid(t)
	interrupted.Workers = 2
	ck, err := checkpoint.Open[Row](path, "sweep", interrupted.Fingerprint(), interrupted.Size(), false)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetInterval(1)
	par.SetChaos(func(ctx context.Context, index int) error {
		if index == 1 {
			<-ctx.Done() // ammp's batch hangs until the cancel
			return ctx.Err()
		}
		return nil
	})
	t.Cleanup(func() { par.SetChaos(nil) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, runErr := interrupted.RunContext(ctx, ck, func(done, total int) {
		cancel() // first landed cell kills the campaign mid-grid
	})
	par.SetChaos(nil)
	if runErr == nil {
		t.Fatal("cancelled run reported success")
	}

	resumed := smallGrid(t)
	resumed.Workers = 2
	ck2, err := checkpoint.Open[Row](path, "sweep", resumed.Fingerprint(), resumed.Size(), true)
	if err != nil {
		t.Fatal(err)
	}
	if done := ck2.CountDone(); done < 1 || done >= resumed.Size() {
		t.Fatalf("checkpoint has %d of %d cells; want a strict non-empty subset", done, resumed.Size())
	}
	rows, err := resumed.RunContext(context.Background(), ck2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsCSV(t, rows); !bytes.Equal(got, wantCSV) {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(wantCSV))
	}
}
