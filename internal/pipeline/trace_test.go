package pipeline

import (
	"reflect"
	"testing"

	"softerror/internal/cache"
	"softerror/internal/isa"
	"softerror/internal/workload"
)

// TestLogPositions pins the residency resolver on a hand-built log: a
// wrong-path copy, a committed Seq the log skips and one past its end
// resolve to -1, while a refetched copy and residencies arriving out of
// program order find their positions.
func TestLogPositions(t *testing.T) {
	log := []isa.Inst{{Seq: 10}, {Seq: 11}, {Seq: 12}, {Seq: 14}, {Seq: 15}}
	at := func(seq uint64, wrong bool) Residency {
		return Residency{Inst: isa.Inst{Seq: seq, WrongPath: wrong}}
	}
	res := []Residency{
		at(10, false),
		at(11, false),
		at(11, false), // a squashed copy refetched under the same Seq
		at(12, true),  // wrong path, whatever its Seq
		at(14, false),
		at(12, false), // retired after a younger instruction
		at(15, false),
		at(13, false), // never logged
		at(16, false), // issued after the log ended
		at(10, false),
	}
	want := []int32{0, 1, 1, -1, 3, 2, 4, -1, -1, 0}
	if got := LogPositions(res, log); !reflect.DeepEqual(got, want) {
		t.Fatalf("LogPositions = %v, want %v", got, want)
	}
	if got := LogPositions(res, nil); len(got) != len(res) || got[0] != -1 || got[len(got)-1] != -1 {
		t.Fatalf("LogPositions over an empty log = %v, want all -1", got)
	}
}

// TestLogPositionsOutOfOrderTrace resolves every residency list of an
// out-of-order trace, whose IQ evictions leave program order, and checks
// each answer against the log: a found position holds the residency's Seq,
// and -1 means wrong path or a Seq the log does not hold.
func TestLogPositionsOutOfOrderTrace(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	cfg := DefaultConfig()
	cfg.OutOfOrder = true
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	tr := MustNew(cfg, gen, mem).Run(5000, true)
	logged := make(map[uint64]bool, len(tr.CommitLog))
	for _, in := range tr.CommitLog {
		logged[in.Seq] = true
	}
	backward := 0
	for _, list := range [][]Residency{tr.Residencies, tr.FrontEnd, tr.StoreBuffer, tr.ROB, tr.LSQ} {
		pos := LogPositions(list, tr.CommitLog)
		last := int32(-1)
		for i, p := range pos {
			in := &list[i].Inst
			switch {
			case p >= 0:
				if in.WrongPath || tr.CommitLog[p].Seq != in.Seq {
					t.Fatalf("residency %d (seq %d, wrong %v) resolved to position %d holding seq %d",
						i, in.Seq, in.WrongPath, p, tr.CommitLog[p].Seq)
				}
				if p < last {
					backward++
				}
				last = p
			case !in.WrongPath && logged[in.Seq]:
				t.Fatalf("residency %d (seq %d) is logged but resolved to -1", i, in.Seq)
			}
		}
	}
	if backward == 0 {
		t.Fatal("no residency arrived out of program order; the binary-search path went unexercised")
	}
}
