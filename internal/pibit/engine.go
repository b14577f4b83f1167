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
// log[faultIdx], where struckField identifies the corrupted bit-field.
// The log must be the committed instruction stream in program order.
func (e *Engine) Process(log []isa.Inst, faultIdx int, struckField isa.Field) Verdict {
	if faultIdx < 0 || faultIdx >= len(log) {
		panic(fmt.Sprintf("pibit: fault index %d out of log range %d", faultIdx, len(log)))
	}
	in := &log[faultIdx]

	// Plain parity: a conservative design raises a machine check the
	// moment the parity error is read out of the queue.
	if e.Level == ace.TrackNever {
		return VerdictSignalled
	}

	// π carried to the commit point: the retire unit ignores errors on
	// instructions that never commit results (§4.3.1). Wrong-path faults
	// are handled by the caller (they never reach the commit log).
	if in.WrongPath || in.PredFalse {
		return VerdictSuppressed
	}

	// Anti-π: neutral instruction types cannot affect the outcome unless
	// the opcode bits themselves were struck (§4.3.2).
	if e.Level >= ace.TrackAntiPi && in.Class.Neutral() && struckField != isa.FieldOpcode {
		return VerdictSuppressed
	}
	if in.Class.Neutral() {
		// Opcode strike on a neutral instruction, or anti-π not deployed:
		// must signal at commit.
		return VerdictSignalled
	}

	// A corrupted destination specifier redirects the write itself: the π
	// bit cannot follow the value (it would poison the wrong register and
	// leave the intended one silently stale), so the hardware signals at
	// commit whenever the dest field's parity domain faulted.
	if in.HasDest() && struckField == isa.FieldDest {
		return VerdictSignalled
	}

	switch e.Level {
	case ace.TrackCommit, ace.TrackAntiPi:
		// No post-commit machinery: signal at the commit point.
		return VerdictSignalled
	case ace.TrackPET:
		return e.processPET(log, faultIdx)
	default:
		return e.processDataflow(log, faultIdx)
	}
}

// processPET runs the faulty instruction through a PET buffer fed by the
// subsequent commit stream (§4.3.3, design 1).
func (e *Engine) processPET(log []isa.Inst, faultIdx int) Verdict {
	in := &log[faultIdx]
	if !in.HasDest() {
		// The PET buffer can only prove register FDD; stores, branches
		// and other destination-less instructions signal at commit.
		return VerdictSignalled
	}
	pet := NewPETBuffer(e.PETEntries)
	pet.Push(*in, true)
	end := faultIdx + 1 + e.Window
	if end > len(log) {
		end = len(log)
	}
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

// processDataflow implements the register-file, store-buffer and memory π
// levels (§4.3.3, designs 2–4) by replaying architectural dataflow from the
// fault forward. The π state is local to the call, so strikes share
// nothing.
func (e *Engine) processDataflow(log []isa.Inst, faultIdx int) Verdict {
	in := &log[faultIdx]
	var pi piState

	// Destination-less π instructions cannot defer: a store commits
	// possibly-incorrect data (signal at store commit for designs 2–3),
	// and control flow cannot be tracked through memory at all.
	if !in.HasDest() {
		if in.Class != isa.ClassStore || e.Level < ace.TrackMemory {
			return VerdictSignalled
		}
		// Design 4: the store's π transfers to the memory block; a later
		// load picks it up into its destination and tracking continues,
		// an overwriting store clears it.
		pi.mem.add(in.Addr)
	} else {
		pi.regs.add(in.Dest)
	}

	end := faultIdx + 1 + e.Window
	if end > len(log) {
		end = len(log)
	}
	for i := faultIdx + 1; i < end; i++ {
		if v, done := e.stepDataflow(&log[i], &pi); done {
			return v
		}
		if pi.regs.n == 0 && len(pi.mem) == 0 {
			return VerdictSuppressed // all π state overwritten unread
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

// regSet is a set of architectural registers: one bit each, plus a
// population count so emptiness is one comparison. Registers are valid
// (isa.Reg's contract for committed instructions); has also accepts
// RegNone, which is never a member.
type regSet struct {
	bits [isa.NumRegs / 64]uint64
	n    int
}

func (s *regSet) has(r isa.Reg) bool {
	return uint(r) < isa.NumRegs && s.bits[uint(r)/64]&(1<<(uint(r)%64)) != 0
}

func (s *regSet) add(r isa.Reg) {
	w, b := &s.bits[uint(r)/64], uint64(1)<<(uint(r)%64)
	if *w&b == 0 {
		*w |= b
		s.n++
	}
}

func (s *regSet) remove(r isa.Reg) {
	w, b := &s.bits[uint(r)/64], uint64(1)<<(uint(r)%64)
	if *w&b != 0 {
		*w &^= b
		s.n--
	}
}

// addrSet is a set of memory block addresses, scanned linearly. It stays
// short: a block enters only when a π value is stored to it, and a clean
// store to the block removes it.
type addrSet []uint64

func (s addrSet) has(a uint64) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}

func (s *addrSet) add(a uint64) {
	if !s.has(a) {
		*s = append(*s, a)
	}
}

func (s *addrSet) remove(a uint64) {
	for i, x := range *s {
		if x == a {
			last := len(*s) - 1
			(*s)[i] = (*s)[last]
			*s = (*s)[:last]
			return
		}
	}
}

// stepDataflow advances the π dataflow by one committed instruction.
// It returns done=true with the final verdict when the machinery commits
// to a decision.
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
	guardPi := pi.regs.has(cur.PredGuard)
	if guardPi && cur.PredFalse {
		return VerdictSignalled, true
	}

	// Does this instruction read a poisoned register?
	readPi := guardPi
	if !cur.PredFalse && (pi.regs.has(cur.Src1) || pi.regs.has(cur.Src2)) {
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
			pi.regs.add(cur.Dest)
		}
	}

	// Overwrites clear poisoned state: a clean result supersedes it.
	if !readPi && !loadPi {
		if cur.HasDest() {
			pi.regs.remove(cur.Dest)
		}
		if memory && cur.Class == isa.ClassStore && !cur.PredFalse {
			pi.mem.remove(cur.Addr)
		}
	}
	return 0, false
}
