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

// TestEstimateCellsRecyclesMemo pins pricing's memory: every benchmark of
// a grid decodes into the previous one's body memo, so pricing three
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
	allocated := func(g *Grid) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, ok := g.EstimateCells(); !ok {
			t.Fatal("grid not priceable")
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	memo := uint64(commits+static.BodySlack) * uint64(unsafe.Sizeof(isa.Inst{}))
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
