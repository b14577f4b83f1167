package fault

import (
	"testing"
	"unsafe"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// TestWideResidenciesExact feeds a StreamRecorder synthetic sink events
// whose cycles run past 2³²−1, including one residency longer than 2³²
// cycles, with the commits arriving in reverse order. Every record must
// read back the 64-bit cycles it was given and the cumulative occupancy
// they imply, and the recorder's injector must classify every strike as
// NewStructureInjector does over the same residencies. It also pins the
// residency record at 24 bytes.
func TestWideResidenciesExact(t *testing.T) {
	if got := unsafe.Sizeof(residency{}); got != 24 {
		t.Errorf("residency record is %d bytes, want 24", got)
	}
	const g = uint64(1) << 32
	r := isa.IntReg
	log := []isa.Inst{
		{Class: isa.ClassALU, Dest: r(1), Src1: r(2), Src2: isa.RegNone, PredGuard: isa.RegNone},
		{Class: isa.ClassALU, Dest: r(3), Src1: r(1), Src2: isa.RegNone, PredGuard: isa.RegNone},
		{Class: isa.ClassStore, Dest: isa.RegNone, Src1: r(3), Src2: r(4), PredGuard: isa.RegNone, Addr: 0x40},
		{Class: isa.ClassALU, Dest: r(1), Src1: r(5), Src2: isa.RegNone, PredGuard: isa.RegNone},
		{Class: isa.ClassLoad, Dest: r(6), Src1: r(4), Src2: isa.RegNone, PredGuard: isa.RegNone, Addr: 0x40},
		{Class: isa.ClassBranch, Dest: isa.RegNone, Src1: r(6), Src2: isa.RegNone, PredGuard: isa.RegNone},
	}
	for i := range log {
		log[i].Seq = uint64(2 * i)
	}
	res := []pipeline.Residency{
		{Inst: log[0], Enq: 10, Issue: g + 5, Evict: g + g/2, Issued: true}, // longer than 2³² cycles
		{Inst: log[1], Enq: g - 10, Issue: g + 1, Evict: g + 20, Issued: true},
		{Inst: log[2], Enq: g + 100, Issue: g + g/4, Evict: g + g/2, Issued: true},
		{Inst: log[3], Enq: 5, Issue: 8, Evict: 9, Issued: true},
		{Inst: isa.Inst{Seq: 3, WrongPath: true, Dest: r(7)}, Enq: 2 * g, Issue: 2*g + g/8, Evict: 2*g + g/4, Issued: true},
		{Inst: log[4], Enq: 2*g + 7, Issue: 3 * g, Evict: 3*g + 1, Issued: true},
		{Inst: log[5], Enq: 3 * g, Evict: 3*g + g/4}, // squashed unread
		{Inst: isa.Inst{Seq: 99, Dest: r(2)}, Enq: 3 * g, Issue: 3*g + g/8, Evict: 3*g + g/4, Issued: true},
	}
	cycles, entries := 4*g, 2

	rec := NewStreamRecorder(0)
	for i := range res {
		rec.OnResidency(res[i])
	}
	for i := len(log) - 1; i >= 0; i-- {
		rec.OnCommit(log[i], 0, 0)
	}
	dead := ace.AnalyzeDeadness(log)
	got := rec.Injector(cycles, entries, dead)
	want := NewStructureInjector(res, cycles, entries, log, dead)

	var occ uint64
	for i := range res {
		s := got.res.span(i)
		if s.enq != res[i].Enq || s.issue != res[i].Issue || s.evict != res[i].Evict {
			t.Errorf("residency %d reads back cycles %+v, want [%d %d %d]", i, s, res[i].Enq, res[i].Issue, res[i].Evict)
		}
		occ += res[i].Occupancy() * uint64(isa.EntryPayloadBits)
		if got.cum[i] != occ {
			t.Errorf("residency %d: cumulative occupancy %d, want %d", i, got.cum[i], occ)
		}
	}

	cfgs := []Config{{Protection: cache.ProtNone}}
	for lvl := ace.TrackNever; lvl <= ace.TrackMemory; lvl++ {
		cfgs = append(cfgs, Config{Protection: cache.ProtParity, Level: lvl})
	}
	// One seed's strike streams share their PCG state and differ only in
	// increment, so over a space past 2³² bit-cycles their first draws
	// cluster in one narrow band; each strike here takes its own seed so
	// that the draws reach every residency.
	var tally [NumOutcomes]int
	for _, cfg := range cfgs {
		for i := 0; i < 4000; i++ {
			cfg.Seed = uint64(i)
			g, w := got.StrikeOutcome(cfg, i), want.StrikeOutcome(cfg, i)
			if g != w {
				t.Fatalf("%v at %v, strike %d: recorder %v, NewStructureInjector %v", cfg.Protection, cfg.Level, i, g, w)
			}
			tally[g]++
		}
	}
	if tally[OutcomeIdle] == 0 || tally[OutcomeNeverRead] == 0 || tally[OutcomeSDC] == 0 || tally[OutcomeTrueDUE] == 0 {
		t.Fatalf("strikes missed the wide residencies' outcomes: %v", tally)
	}
}
