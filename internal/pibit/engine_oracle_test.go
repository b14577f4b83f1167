package pibit

import (
	"math/rand"
	"slices"
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

// stepWalkDataflow is the π replay without the index: stepDataflow on
// every instruction of the window. It is the oracle the indexed walk's
// ops and block skipping are pinned against.
func stepWalkDataflow(e *Engine, log []isa.Inst, faultIdx int) Verdict {
	in := &log[faultIdx]
	var pi piState
	if !in.HasDest() {
		if in.Class != isa.ClassStore || e.Level < ace.TrackMemory {
			return VerdictSignalled
		}
		pi.mem.add(in.Addr)
	} else {
		pi.regs.add(slotOf(in.Dest))
	}
	end := min(faultIdx+1+e.Window, len(log))
	for i := faultIdx + 1; i < end; i++ {
		if v, done := e.stepDataflow(&log[i], &pi); done {
			return v
		}
		if pi.regs.n == 0 && pi.mem.n == 0 {
			return VerdictSuppressed
		}
	}
	return VerdictLatent
}

// stepDataflow advances the step walk by one committed instruction, read
// from the instruction itself rather than its indexed op. It returns
// done=true with the final verdict when the walk commits to a decision.
func (e *Engine) stepDataflow(cur *isa.Inst, pi *piState) (Verdict, bool) {
	if cur.Class.Neutral() {
		return 0, false // neutral readers consume nothing
	}
	memory := e.Level >= ace.TrackMemory

	// A poisoned qualifying predicate makes the execute/nullify decision
	// itself suspect. For an instruction that nullified (pred-false), the
	// register it would have written cannot be tracked — signal. For one
	// that executed, its result is simply possibly incorrect: poison the
	// destination and keep tracking, like any other poisoned read.
	guardPi := pi.regs.has(slotOf(cur.PredGuard))
	if guardPi && cur.PredFalse {
		return VerdictSignalled, true
	}

	// Does this instruction read a poisoned register?
	readPi := guardPi
	if !cur.PredFalse && (pi.regs.has(slotOf(cur.Src1)) || pi.regs.has(slotOf(cur.Src2))) {
		readPi = true
	}

	// Loads may pick π up from a poisoned memory block (design 4).
	loadPi := memory && cur.Class == isa.ClassLoad && !cur.PredFalse && pi.mem.has(cur.Addr)

	switch {
	case e.Level == ace.TrackRegFile:
		// Design 2: signal on any read of a poisoned register.
		if readPi {
			return VerdictSignalled, true
		}
	case readPi || loadPi:
		// Designs 3–4: π propagates along dataflow. Control flow and I/O
		// cannot be deferred; stores defer only under design 4.
		switch {
		case cur.Class.IsControl() || cur.Class == isa.ClassIO:
			return VerdictSignalled, true
		case cur.Class == isa.ClassStore:
			if !memory {
				return VerdictSignalled, true
			}
			pi.mem.add(cur.Addr)
		case cur.HasDest():
			pi.regs.add(slotOf(cur.Dest))
		}
	}

	// Overwrites clear poisoned state: a clean result supersedes it.
	if !readPi && !loadPi {
		if cur.HasDest() {
			pi.regs.remove(slotOf(cur.Dest))
		}
		if memory && cur.Class == isa.ClassStore && !cur.PredFalse {
			pi.mem.remove(cur.Addr)
		}
	}
	return 0, false
}

// petBufferWalk decides a PET-level fault by running the faulty
// instruction through a PETBuffer fed by the rest of the window: the
// hardware structure the engine's bounded scan is pinned against.
func petBufferWalk(e *Engine, log []isa.Inst, faultIdx int) Verdict {
	in := &log[faultIdx]
	if !in.HasDest() {
		return VerdictSignalled
	}
	pet := NewPETBuffer(e.PETEntries)
	pet.Push(*in, true)
	end := min(faultIdx+1+e.Window, len(log))
	for i := faultIdx + 1; i < end; i++ {
		signal, seq, evicted := pet.Push(log[i], false)
		if evicted && seq == in.Seq {
			if signal {
				return VerdictSignalled
			}
			return VerdictSuppressed
		}
	}
	for _, seq := range pet.Drain() {
		if seq == in.Seq {
			return VerdictSignalled
		}
	}
	return VerdictSuppressed
}

// replays reports whether Process hands a fault on in to a post-commit
// walk (the PET scan or the dataflow replay) rather than deciding it from
// the instruction alone.
func replays(e *Engine, in *isa.Inst, field isa.Field) bool {
	return e.Level >= ace.TrackPET && !in.WrongPath && !in.PredFalse &&
		!in.Class.Neutral() && !(in.HasDest() && field == isa.FieldDest)
}

// piAddrs is the oracle logs' address pool: twelve memory blocks and, for
// each, a different block that sets the same index filter bit, so filter
// hits between unequal addresses are common.
var piAddrs = func() (pool [24]uint64) {
	const bases = len(pool) / 2
	for k := 0; k < bases; k++ {
		pool[k] = 8 * uint64(k)
	}
	for k := 0; k < bases; k++ {
		a := pool[k] + 8
		for addrBit(a) != addrBit(pool[k]) || slices.Contains(pool[:bases+k], a) {
			a += 8
		}
		pool[bases+k] = a
	}
	return pool
}()

// decodePiLog turns fuzz bytes into a commit log, five bytes per
// instruction, over a small register pool and the piAddrs address pool so
// that π values are read, overwritten, stored and reloaded often.
func decodePiLog(data []byte) []isa.Inst {
	regs := [...]isa.Reg{isa.RegNone, isa.IntReg(1), isa.IntReg(2), isa.IntReg(3),
		isa.FPReg(1), isa.FPReg(2), isa.PredReg(1), isa.PredReg(2)}
	log := make([]isa.Inst, len(data)/5)
	for i := range log {
		b := data[5*i : 5*i+5]
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
		in.WrongPath = b[3]>>5 == 7
		in.Addr = piAddrs[b[4]%uint8(len(piAddrs))]
	}
	return log
}

// checkDataflowMatchesOracle compares the engine with its oracles for a
// fault on every instruction of log, at every tracking level and on every
// struck field, and tallies the verdicts seen: the indexed dataflow walk
// against the step walk and the map oracle, and the PET scan against the
// PETBuffer walk.
func checkDataflowMatchesOracle(t *testing.T, log []isa.Inst, window, petEntries int, seen *[3]int) {
	t.Helper()
	ix := NewIndex(log)
	for lvl := ace.TrackNever; lvl <= ace.TrackMemory; lvl++ {
		e := &Engine{Level: lvl, PETEntries: petEntries, Window: window}
		for i := range log {
			for f := isa.Field(0); f < isa.NumFields; f++ {
				got := e.Process(ix, i, f)
				check := func(oracle string, want Verdict) {
					if got != want {
						t.Fatalf("level %v, fault on %d (%+v), field %v, window %d, PET %d: engine %v, %s oracle %v",
							lvl, i, log[i], f, window, petEntries, got, oracle, want)
					}
				}
				switch {
				case !replays(e, &log[i], f):
				case lvl == ace.TrackPET:
					check("PETBuffer", petBufferWalk(e, log, i))
				default:
					check("map", mapDataflow(e, log, i))
					check("step walk", stepWalkDataflow(e, log, i))
				}
				seen[got]++
			}
		}
	}
}

// quietSpans overwrites random runs of 32 to 159 encoded instructions with
// register-free, memory-free ALU operations. A π value crosses such a run
// untouched, so the replay skips whole index blocks inside it and steps
// through the blocks it only partly covers.
func quietSpans(r *rand.Rand, data []byte) {
	n := len(data) / 5
	for i := 0; i < n; i++ {
		if r.Intn(48) != 0 {
			continue
		}
		for end := min(i+32+r.Intn(128), n); i < end; i++ {
			copy(data[5*i:5*i+4], []byte{byte(isa.ClassALU), 1, 0, 0})
		}
	}
}

// petSizes are the PET capacities the oracle checks cycle through: from a
// single entry to past the index's 64-position block.
var petSizes = []int{1, 2, 3, 7, 63, 64, 65, 100, 200}

// TestDataflowMatchesMapOracle pins the indexed π replay to the step walk
// and the map oracle, and the PET scan to the PETBuffer walk, over random
// commit logs of three to six index blocks: store-heavy, load-heavy and
// predicated-false-heavy mixes, with and without quiet spans the replay
// can skip, windows that end mid-block (latent verdicts) and the default
// window.
func TestDataflowMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	mixes := []struct{ store, load, predFalse float64 }{
		{0, 0, 0}, {0.4, 0.1, 0}, {0.1, 0.4, 0}, {0.3, 0.3, 0.3}, {0.05, 0.05, 0.5},
	}
	var seen [3]int
	for k, m := range mixes {
		for rep := 0; rep < 4; rep++ {
			n := 3<<blockShift + r.Intn(3<<blockShift)
			data := make([]byte, 5*n)
			r.Read(data)
			for i := 0; i < n; i++ {
				switch x := r.Float64(); {
				case x < m.store:
					data[5*i] = byte(isa.ClassStore)
				case x < m.store+m.load:
					data[5*i] = byte(isa.ClassLoad)
				}
				if r.Float64() < m.predFalse {
					data[5*i+1] &^= 0x07
				}
			}
			if rep%2 == 1 {
				quietSpans(r, data)
			}
			log := decodePiLog(data)
			pet := petSizes[(4*k+rep)%len(petSizes)]
			checkDataflowMatchesOracle(t, log, 1+r.Intn(n), pet, &seen)
			checkDataflowMatchesOracle(t, log, DefaultWindow, pet, &seen)
		}
	}
	for v, k := range seen {
		if k == 0 {
			t.Errorf("no %v verdict across the random logs", Verdict(v))
		}
	}
}

// FuzzDataflowMatchesMapOracle is TestDataflowMatchesMapOracle over
// fuzzer-chosen commit logs; the first byte picks the replay window and
// the second the PET capacity.
func FuzzDataflowMatchesMapOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x03\x00\x03\x09\x0a\x00\x21\x0b\x00\x03\x01\x00\x09\x0a\x00\x01\x00\x04\x12\x08\x00\x05\x07"))
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{48, 130, 200, 260} {
		data := make([]byte, 2+5*n)
		r.Read(data)
		f.Add(data)
		quietSpans(r, data[2:])
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		window, pet := 1+int(data[0]), 1+int(data[1])
		var seen [3]int
		checkDataflowMatchesOracle(t, decodePiLog(data[2:]), window, pet, &seen)
	})
}

// TestAddrSetSpills pins the π address set against a map past its inline
// capacity: membership and the hashed filter stay exact as members spill,
// are removed from the inline part and the spill, and are re-added.
func TestAddrSetSpills(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s addrSet
	want := map[uint64]bool{}
	for step := 0; step < 4000; step++ {
		a := 8 * uint64(r.Intn(3*memInline))
		if r.Intn(3) == 0 {
			s.remove(a)
			delete(want, a)
		} else {
			s.add(a)
			want[a] = true
		}
		var filter uint64
		for x := range want {
			filter |= addrBit(x)
		}
		if s.n != len(want) || s.filter != filter {
			t.Fatalf("step %d: %d members, filter %#x; want %d, %#x", step, s.n, s.filter, len(want), filter)
		}
		for k := 0; k < 3*memInline; k++ {
			if x := 8 * uint64(k); s.has(x) != want[x] {
				t.Fatalf("step %d: has(%d) = %v", step, x, s.has(x))
			}
		}
	}
}
