package pibit

import (
	"fmt"

	"softerror/internal/ace"
	"softerror/internal/isa"
)

// Verdict is the tracking machinery's decision about one detected fault.
type Verdict uint8

const (
	// VerdictSuppressed: the mechanism proved the error could not affect
	// the program's output and raised nothing.
	VerdictSuppressed Verdict = iota
	// VerdictSignalled: a machine-check error was raised.
	VerdictSignalled
	// VerdictLatent: the π bit was still being tracked when the
	// observation window ended — no error raised yet, none lost: the
	// fault remains detectable at its eventual consumption point.
	VerdictLatent
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictSuppressed:
		return "suppressed"
	case VerdictSignalled:
		return "signalled"
	case VerdictLatent:
		return "latent"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Engine models a parity-protected instruction queue with the paper's π-bit
// tracking deployed up to a configurable level. Given a fault detected on
// one committed instruction, Process replays the architectural dataflow
// from the commit stream and decides whether the machinery signals an
// error, proves it false, or is still tracking it when the window closes.
type Engine struct {
	// Level selects the cumulative tracking deployment (§4.3 / Figure 2).
	Level ace.TrackLevel
	// PETEntries sizes the PET buffer at TrackPET.
	PETEntries int
	// Window bounds how many committed instructions after the fault are
	// replayed before the engine declares the π state latent.
	Window int
}

// DefaultWindow bounds dataflow replay; register overwrite distances and
// store-ring recycling are far shorter in practice.
const DefaultWindow = 50_000

// NewEngine returns an engine at the given level with a 512-entry PET
// buffer (the paper's headline configuration) and the default window.
func NewEngine(level ace.TrackLevel) *Engine {
	return &Engine{Level: level, PETEntries: 512, Window: DefaultWindow}
}

// Process decides the fate of a fault detected (by parity, at issue) on
// the commit log position faultIdx of ix, where struckField identifies the
// corrupted bit-field. Build ix once per log; Process only
// reads it, so strikes on one log may share it across goroutines.
func (e *Engine) Process(ix *Index, faultIdx int, struckField isa.Field) Verdict {
	if faultIdx < 0 || faultIdx >= len(ix.ops) {
		panic(fmt.Sprintf("pibit: fault index %d out of log range %d", faultIdx, len(ix.ops)))
	}
	in := &ix.ops[faultIdx]

	// Plain parity: a conservative design raises a machine check the
	// moment the parity error is read out of the queue.
	if e.Level == ace.TrackNever {
		return VerdictSignalled
	}

	// π carried to the commit point: the retire unit ignores errors on
	// instructions that never commit results (§4.3.1). Wrong-path faults
	// are handled by the caller (they never reach the commit log).
	if in.has(opWrongPath | opPredFalse) {
		return VerdictSuppressed
	}

	// Anti-π: neutral instruction types cannot affect the outcome unless
	// the opcode bits themselves were struck (§4.3.2).
	if e.Level >= ace.TrackAntiPi && in.kind == opNeutral && struckField != isa.FieldOpcode {
		return VerdictSuppressed
	}
	if in.kind == opNeutral {
		// Opcode strike on a neutral instruction, or anti-π not deployed:
		// must signal at commit.
		return VerdictSignalled
	}

	// A corrupted destination specifier redirects the write itself: the π
	// bit cannot follow the value (it would poison the wrong register and
	// leave the intended one silently stale), so the hardware signals at
	// commit whenever the dest field's parity domain faulted.
	if in.has(opHasDest) && struckField == isa.FieldDest {
		return VerdictSignalled
	}

	switch e.Level {
	case ace.TrackCommit, ace.TrackAntiPi:
		// No post-commit machinery: signal at the commit point.
		return VerdictSignalled
	case ace.TrackPET:
		return e.processPET(ix, faultIdx)
	default:
		return e.processDataflow(ix, faultIdx)
	}
}

// windowEnd returns the log position one past the last instruction replayed
// after a fault on faultIdx.
func (e *Engine) windowEnd(ix *Index, faultIdx int) int {
	return min(faultIdx+1+e.Window, len(ix.ops))
}

// processPET decides a fault the way the PET buffer does (§4.3.3, design
// 1), without simulating the buffer: the faulty entry is evicted once
// PETEntries younger instructions are logged, and eviction scans exactly
// those. The first read of the destination means the value may have been
// consumed (signal); an overwrite with no read before it proves the write
// first-level dead (suppress); neither within the buffer proves nothing
// (signal). A window shorter than the buffer drains it early, which scans
// what was logged by then.
func (e *Engine) processPET(ix *Index, faultIdx int) Verdict {
	in := &ix.ops[faultIdx]
	if !in.has(opHasDest) {
		// The PET buffer can only prove register FDD; stores, branches
		// and other destination-less instructions signal at commit.
		return VerdictSignalled
	}
	if e.PETEntries < 1 {
		panic(fmt.Sprintf("pibit: PET buffer size %d, want >= 1", e.PETEntries))
	}
	dest := in.dest
	end := min(faultIdx+1+e.PETEntries, e.windowEnd(ix, faultIdx))
	for i := faultIdx + 1; i < end; {
		next := min(blockEnd(i), end)
		if !ix.blocks[i>>blockShift].regs.has(dest) {
			i = next // no instruction here names dest
			continue
		}
		for ; i < next; i++ {
			o := &ix.ops[i]
			if o.guard == dest || o.src1 == dest || o.src2 == dest {
				return VerdictSignalled // intervening read: possibly consumed
			}
			if o.dest == dest {
				return VerdictSuppressed // overwritten without read: proven FDD
			}
		}
	}
	return VerdictSignalled // no overwriter logged: cannot prove
}

// processDataflow implements the register-file, store-buffer and memory π
// levels (§4.3.3, designs 2–4) by replaying architectural dataflow from the
// fault forward. The π state is local to the call, so strikes share
// nothing. The replay walks the index: a block that names no poisoned
// register and whose address filter misses every poisoned block is
// skipped whole, since step changes nothing and decides nothing on an
// instruction that touches no π state.
func (e *Engine) processDataflow(ix *Index, faultIdx int) Verdict {
	in := &ix.ops[faultIdx]
	var pi piState

	// Destination-less π instructions cannot defer: a store commits
	// possibly-incorrect data (signal at store commit for designs 2–3),
	// and control flow cannot be tracked through memory at all.
	if !in.has(opHasDest) {
		// Process has returned for pred-false and neutral instructions, so
		// an opStore here is exactly an executed store.
		if in.kind != opStore || e.Level < ace.TrackMemory {
			return VerdictSignalled
		}
		// Design 4: the store's π transfers to the memory block; a later
		// load picks it up into its destination and tracking continues,
		// an overwriting store clears it.
		pi.mem.add(ix.addrs[faultIdx])
	} else {
		pi.regs.add(in.dest)
	}

	memory := e.Level >= ace.TrackMemory
	end := e.windowEnd(ix, faultIdx)
	for i := faultIdx + 1; i < end; {
		next := min(blockEnd(i), end)
		if !ix.blocks[i>>blockShift].touches(&pi) {
			i = next
			continue
		}
		for ; i < next; i++ {
			o := &ix.ops[i]
			if o.kind == opNeutral {
				continue // neutral readers consume nothing
			}
			readPi := pi.regs.has(o.guard) || pi.regs.has(o.src1) || pi.regs.has(o.src2)
			if !readPi && (!memory || o.kind != opLoad && o.kind != opStore) {
				// Reads no π and moves no memory π: all step would do is
				// clear a clean overwrite.
				if !pi.regs.has(o.dest) {
					continue
				}
				pi.regs.remove(o.dest)
			} else if v, done := e.step(ix, i, &pi); done {
				return v
			}
			if pi.regs.n == 0 && pi.mem.n == 0 {
				return VerdictSuppressed // all π state overwritten unread
			}
		}
	}
	return VerdictLatent
}

// piState is the π state of one strike's dataflow replay: the poisoned
// registers and, under design 4, the poisoned memory blocks.
type piState struct {
	regs regSet
	mem  addrSet
}

// regSlot is a register's bit in a regBits: the register's index, and
// for RegNone a slot no register uses, so membership needs no range check.
type regSlot uint16

// noSlot is RegNone's slot; a π register set never holds it.
const noSlot regSlot = 8*64 - 1

// slotOf returns r's slot.
func slotOf(r isa.Reg) regSlot {
	if r.Valid() {
		return regSlot(r)
	}
	return noSlot
}

// regBits holds one bit per register slot.
type regBits [8]uint64

func (b *regBits) has(s regSlot) bool { return b[s>>6&7]>>(s&63)&1 != 0 }

func (b *regBits) set(s regSlot) { b[s>>6&7] |= 1 << (s & 63) }

// regSet is a set of architectural registers: one bit each, plus a
// population count so emptiness is one comparison.
type regSet struct {
	bits regBits
	n    int
}

func (s *regSet) has(r regSlot) bool { return s.bits.has(r) }

// add inserts r, which must not be noSlot.
func (s *regSet) add(r regSlot) {
	if !s.bits.has(r) {
		s.bits.set(r)
		s.n++
	}
}

func (s *regSet) remove(r regSlot) {
	if s.bits.has(r) {
		s.bits[r>>6&7] &^= 1 << (r & 63)
		s.n--
	}
}

// memInline is how many poisoned memory blocks a replay holds in place
// before its address set spills to the heap.
const memInline = 64

// addrSet is a set of memory block addresses, scanned linearly, with the
// index's hashed filter of its members. It stays short: a block enters
// only when a π value is stored to it, and a clean store to the block
// removes it. The first memInline members live in the set itself, so a
// replay's π state stays on its stack.
type addrSet struct {
	inline [memInline]uint64
	spill  []uint64 // members past the inline capacity
	n      int
	filter uint64 // OR of addrBit over the members
}

// slot returns member i's storage.
func (s *addrSet) slot(i int) *uint64 {
	if i < memInline {
		return &s.inline[i]
	}
	return &s.spill[i-memInline]
}

// find returns a's member index, or -1.
func (s *addrSet) find(a uint64) int {
	if s.filter&addrBit(a) == 0 {
		return -1
	}
	for i := 0; i < s.n; i++ {
		if *s.slot(i) == a {
			return i
		}
	}
	return -1
}

func (s *addrSet) has(a uint64) bool { return s.find(a) >= 0 }

func (s *addrSet) add(a uint64) {
	if s.has(a) {
		return
	}
	if s.n < memInline {
		s.inline[s.n] = a
	} else {
		s.spill = append(s.spill, a)
	}
	s.n++
	s.filter |= addrBit(a)
}

func (s *addrSet) remove(a uint64) {
	i := s.find(a)
	if i < 0 {
		return
	}
	s.n--
	*s.slot(i) = *s.slot(s.n)
	if s.n >= memInline {
		s.spill = s.spill[:s.n-memInline]
	}
	s.filter = 0
	for k := 0; k < s.n; k++ {
		s.filter |= addrBit(*s.slot(k))
	}
}

// step advances the π dataflow by the non-neutral instruction at log
// position i. It returns done=true with the final verdict when the
// machinery commits to a decision.
func (e *Engine) step(ix *Index, i int, pi *piState) (Verdict, bool) {
	o := &ix.ops[i]
	memory := e.Level >= ace.TrackMemory

	// A poisoned qualifying predicate makes the execute/nullify decision
	// itself suspect. For an instruction that nullified (pred-false), the
	// register it would have written cannot be tracked — signal. For one
	// that executed, its result is simply possibly incorrect: poison the
	// destination and keep tracking, like any other poisoned read.
	guardPi := pi.regs.has(o.guard)
	if guardPi && o.has(opPredFalse) {
		return VerdictSignalled, true
	}

	// Does this instruction read a poisoned register? The sources of a
	// pred-false instruction consume nothing; its op names none.
	readPi := guardPi || pi.regs.has(o.src1) || pi.regs.has(o.src2)

	// Loads may pick π up from a poisoned memory block (design 4).
	loadPi := memory && o.kind == opLoad && pi.mem.has(ix.addrs[i])

	switch {
	case e.Level == ace.TrackRegFile:
		// Design 2: signal on any read of a poisoned register.
		if readPi {
			return VerdictSignalled, true
		}
	case readPi || loadPi:
		// Designs 3–4: π propagates along dataflow. Control flow and I/O
		// cannot be deferred; stores defer only under design 4.
		switch o.kind {
		case opSignal:
			return VerdictSignalled, true
		case opStore:
			if !memory {
				return VerdictSignalled, true
			}
			pi.mem.add(ix.addrs[i])
		default:
			if o.dest != noSlot {
				pi.regs.add(o.dest)
			}
		}
	}

	// Overwrites clear poisoned state: a clean result supersedes it.
	if !readPi && !loadPi {
		pi.regs.remove(o.dest)
		if memory && o.kind == opStore {
			pi.mem.remove(ix.addrs[i])
		}
	}
	return 0, false
}
