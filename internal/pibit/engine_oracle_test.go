package pibit

import (
	"math/rand"
	"testing"

	"softerror/internal/ace"
	"softerror/internal/isa"
)

// mapDataflow is the π dataflow replay as first written, over Go maps: the
// oracle the engine's map-free replay (a register bitset and a short
// address list) is pinned against.
func mapDataflow(e *Engine, log []isa.Inst, faultIdx int) Verdict {
	in := &log[faultIdx]
	regPi := map[isa.Reg]bool{}
	var memPi map[uint64]bool
	if e.Level >= ace.TrackMemory {
		memPi = make(map[uint64]bool)
	}
	if !in.HasDest() {
		if in.Class != isa.ClassStore || e.Level < ace.TrackMemory {
			return VerdictSignalled
		}
		memPi[in.Addr] = true
	} else {
		regPi[in.Dest] = true
	}
	end := faultIdx + 1 + e.Window
	if end > len(log) {
		end = len(log)
	}
	for i := faultIdx + 1; i < end; i++ {
		if v, done := mapStepDataflow(e, &log[i], regPi, memPi); done {
			return v
		}
		if len(regPi) == 0 && len(memPi) == 0 {
			return VerdictSuppressed
		}
	}
	return VerdictLatent
}

// mapStepDataflow advances the map oracle by one committed instruction.
func mapStepDataflow(e *Engine, cur *isa.Inst, regPi map[isa.Reg]bool, memPi map[uint64]bool) (Verdict, bool) {
	if cur.Class.Neutral() {
		return 0, false
	}
	guardPi := cur.PredGuard != isa.RegNone && regPi[cur.PredGuard]
	if guardPi && cur.PredFalse {
		return VerdictSignalled, true
	}
	readPi := guardPi
	if !cur.PredFalse {
		if cur.Src1 != isa.RegNone && regPi[cur.Src1] {
			readPi = true
		}
		if cur.Src2 != isa.RegNone && regPi[cur.Src2] {
			readPi = true
		}
	}
	loadPi := false
	if memPi != nil && cur.Class == isa.ClassLoad && !cur.PredFalse && memPi[cur.Addr] {
		loadPi = true
	}
	switch {
	case e.Level == ace.TrackRegFile:
		if readPi {
			return VerdictSignalled, true
		}
	case readPi || loadPi:
		switch {
		case cur.Class.IsControl() || cur.Class == isa.ClassIO:
			return VerdictSignalled, true
		case cur.Class == isa.ClassStore:
			if e.Level >= ace.TrackMemory {
				memPi[cur.Addr] = true
			} else {
				return VerdictSignalled, true
			}
		case cur.HasDest():
			regPi[cur.Dest] = true
		}
	}
	if !readPi && !loadPi {
		if cur.HasDest() {
			delete(regPi, cur.Dest)
		}
		if memPi != nil && cur.Class == isa.ClassStore && !cur.PredFalse {
			delete(memPi, cur.Addr)
		}
	}
	return 0, false
}

// oracleProcess is Process with the dataflow replay done by the map
// oracle. The checks ahead of the replay are Process's own.
func oracleProcess(e *Engine, log []isa.Inst, faultIdx int, field isa.Field) Verdict {
	in := &log[faultIdx]
	replays := e.Level >= ace.TrackRegFile && !in.WrongPath && !in.PredFalse &&
		!in.Class.Neutral() && !(in.HasDest() && field == isa.FieldDest)
	if !replays {
		return e.Process(log, faultIdx, field)
	}
	return mapDataflow(e, log, faultIdx)
}

// decodePiLog turns fuzz bytes into a commit log, four bytes per
// instruction, over a small register and address pool so that π values are
// read, overwritten, stored and reloaded often.
func decodePiLog(data []byte) []isa.Inst {
	regs := [...]isa.Reg{isa.RegNone, isa.IntReg(1), isa.IntReg(2), isa.IntReg(3),
		isa.FPReg(1), isa.FPReg(2), isa.PredReg(1), isa.PredReg(2)}
	log := make([]isa.Inst, len(data)/4)
	for i := range log {
		b := data[4*i : 4*i+4]
		in := &log[i]
		in.Seq = uint64(i)
		in.Class = isa.Class(b[0] % 11) // any of the 11 classes
		in.PredFalse = b[1]&0x07 == 0
		in.PredGuard = regs[b[1]>>5]
		in.Dest = regs[b[2]&7]
		in.Src1 = regs[b[2]>>3&7]
		if b[2]&0x40 != 0 {
			in.Src1 = in.Dest
		}
		in.Src2 = regs[b[3]&7]
		in.Addr = 8 * uint64(b[3]>>3&3)
		in.WrongPath = b[3]>>5 == 7
	}
	return log
}

// checkDataflowMatchesOracle compares the engine with the map oracle for a
// fault on every instruction of log, at every tracking level and on every
// struck field, and tallies the verdicts seen.
func checkDataflowMatchesOracle(t *testing.T, log []isa.Inst, window int, seen *[3]int) {
	t.Helper()
	for lvl := ace.TrackNever; lvl <= ace.TrackMemory; lvl++ {
		e := &Engine{Level: lvl, PETEntries: 4, Window: window}
		for i := range log {
			for f := isa.Field(0); f < isa.NumFields; f++ {
				got, want := e.Process(log, i, f), oracleProcess(e, log, i, f)
				if got != want {
					t.Fatalf("level %v, fault on %d (%+v), field %v, window %d: engine %v, map oracle %v",
						lvl, i, log[i], f, window, got, want)
				}
				seen[got]++
			}
		}
	}
}

// TestDataflowMatchesMapOracle pins the map-free π replay to the map
// oracle over random commit logs: store-heavy, load-heavy and
// predicated-false-heavy mixes, short windows (latent verdicts) and the
// default window.
func TestDataflowMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	mixes := []struct{ store, load, predFalse float64 }{
		{0, 0, 0}, {0.4, 0.1, 0}, {0.1, 0.4, 0}, {0.3, 0.3, 0.3}, {0.05, 0.05, 0.5},
	}
	var seen [3]int
	for _, m := range mixes {
		for rep := 0; rep < 8; rep++ {
			n := 40 + r.Intn(120)
			data := make([]byte, 4*n)
			r.Read(data)
			for i := 0; i < n; i++ {
				switch x := r.Float64(); {
				case x < m.store:
					data[4*i] = byte(isa.ClassStore)
				case x < m.store+m.load:
					data[4*i] = byte(isa.ClassLoad)
				}
				if r.Float64() < m.predFalse {
					data[4*i+1] &^= 0x07
				}
			}
			log := decodePiLog(data)
			checkDataflowMatchesOracle(t, log, 1+r.Intn(n), &seen)
			checkDataflowMatchesOracle(t, log, DefaultWindow, &seen)
		}
	}
	for v, k := range seen {
		if k == 0 {
			t.Errorf("no %v verdict across the random logs", Verdict(v))
		}
	}
}

// FuzzDataflowMatchesMapOracle is TestDataflowMatchesMapOracle over
// fuzzer-chosen commit logs; the first byte picks the replay window.
func FuzzDataflowMatchesMapOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x03\x00\x09\x0a\x00\x21\x0b\x00\x03\x01\x00\x09\x0a\x00\x01\x00\x04\x12\x08\x00"))
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		data := make([]byte, 1+4*48)
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		window := 1 + int(data[0])
		var seen [3]int
		checkDataflowMatchesOracle(t, decodePiLog(data[1:]), window, &seen)
	})
}
