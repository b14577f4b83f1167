package sweep

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"softerror/internal/core"
	"softerror/internal/isa"
	"softerror/internal/spec"
	"softerror/internal/static"
	"softerror/internal/workload"
)

func TestOrderByEstimate(t *testing.T) {
	got := OrderByEstimate([]uint64{30, 10, 20, 10, 30, 5})
	if want := []int{5, 1, 3, 2, 0, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("OrderByEstimate = %v, want %v (ascending, ties in cell order)", got, want)
	}
	if got := OrderByEstimate(nil); len(got) != 0 {
		t.Fatalf("OrderByEstimate(nil) = %v, want empty", got)
	}
}

// TestEstimateCellsRecyclesMemo pins pricing's memory: pricing checks each
// benchmark's stream out of the process-wide store, so a grid wider than
// the store's budget keeps the store within it, and each decode past the
// budget reuses the arrays of the stream it evicts — pricing three
// benchmarks allocates about one memo, not three.
func TestEstimateCellsRecyclesMemo(t *testing.T) {
	const commits = 50_000
	grid := func(names ...string) *Grid {
		g := &Grid{
			Policies:   []core.Policy{core.PolicyBaseline},
			IQSizes:    []int{64},
			OutOfOrder: []bool{false, true},
			Commits:    commits,
		}
		for _, name := range names {
			b, ok := spec.ByName(name)
			if !ok {
				t.Fatalf("%s not in roster", name)
			}
			g.Benches = append(g.Benches, b)
		}
		return g
	}
	memo := int64(commits+static.BodySlack) * int64(unsafe.Sizeof(isa.Inst{}))
	st := workload.Streams()
	budget := memo * 3 / 2
	t.Cleanup(func() { st.SetBudget(workload.DefaultStreamBytes) })
	allocated := func(g *Grid) int64 {
		st.SetBudget(0) // start from an empty store
		st.SetBudget(budget)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, ok := g.EstimateCells(); !ok {
			t.Fatal("grid not priceable")
		}
		runtime.ReadMemStats(&after)
		if b := st.Bytes(); b > budget {
			t.Errorf("pricing left %d bytes in the store, over its %d-byte budget", b, budget)
		}
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	one := allocated(grid("mcf"))
	three := allocated(grid("mcf", "ammp", "gzip-graphic"))
	if one < memo {
		t.Fatalf("pricing one benchmark allocated %d bytes, less than its %d-byte memo", one, memo)
	}
	if three > one+memo/2 {
		t.Errorf("pricing three benchmarks allocated %d bytes, one allocated %d: "+
			"want under one more half memo (%d bytes)", three, one, memo/2)
	}
}
