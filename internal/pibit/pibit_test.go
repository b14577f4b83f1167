package pibit

import (
	"testing"

	"softerror/internal/ace"
	"softerror/internal/isa"
)

// Test helpers mirroring the ace package's log builder.
type logBuilder struct {
	log []isa.Inst
	seq uint64
}

func (b *logBuilder) add(in isa.Inst) int {
	in.Seq = b.seq
	b.seq++
	b.log = append(b.log, in)
	return len(b.log) - 1
}

func (b *logBuilder) alu(dest, src1, src2 isa.Reg) int {
	return b.add(isa.Inst{Class: isa.ClassALU, Dest: dest, Src1: src1, Src2: src2, PredGuard: isa.RegNone})
}

func (b *logBuilder) load(dest isa.Reg, addr uint64) int {
	return b.add(isa.Inst{Class: isa.ClassLoad, Dest: dest, Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone, Addr: addr})
}

func (b *logBuilder) store(val isa.Reg, addr uint64) int {
	return b.add(isa.Inst{Class: isa.ClassStore, Dest: isa.RegNone, Src1: val, Src2: isa.RegNone, PredGuard: isa.RegNone, Addr: addr})
}

func (b *logBuilder) nop() int {
	return b.add(isa.Inst{Class: isa.ClassNop, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, PredGuard: isa.RegNone})
}

func (b *logBuilder) branch(src isa.Reg) int {
	return b.add(isa.Inst{Class: isa.ClassBranch, Dest: isa.RegNone, Src1: src, Src2: isa.RegNone, PredGuard: isa.RegNone})
}

func TestPETBufferProvesFDD(t *testing.T) {
	pet := NewPETBuffer(4)
	faulty := isa.Inst{Seq: 1, Class: isa.ClassALU, Dest: isa.IntReg(5), Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(faulty, true)
	// Overwrite r5 with no read, then pad until the faulty entry evicts.
	over := isa.Inst{Seq: 2, Class: isa.ClassALU, Dest: isa.IntReg(5), Src1: isa.IntReg(2), Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(over, false)
	pad := isa.Inst{Seq: 3, Class: isa.ClassNop, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, PredGuard: isa.RegNone}
	for i := 0; i < 2; i++ {
		pet.Push(pad, false)
	}
	// Next push evicts the faulty entry.
	signal, seq, evicted := pet.Push(pad, false)
	if !evicted || seq != 1 {
		t.Fatalf("expected eviction of seq 1, got seq %d evicted=%v", seq, evicted)
	}
	if signal {
		t.Fatal("PET buffer failed to prove an obvious FDD")
	}
	if pet.Suppressed() != 1 {
		t.Fatalf("Suppressed = %d, want 1", pet.Suppressed())
	}
}

func TestPETBufferSignalsOnInterveningRead(t *testing.T) {
	pet := NewPETBuffer(4)
	faulty := isa.Inst{Seq: 1, Class: isa.ClassALU, Dest: isa.IntReg(5), Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(faulty, true)
	reader := isa.Inst{Seq: 2, Class: isa.ClassALU, Dest: isa.IntReg(6), Src1: isa.IntReg(5), Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(reader, false)
	over := isa.Inst{Seq: 3, Class: isa.ClassALU, Dest: isa.IntReg(5), Src1: isa.IntReg(2), Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(over, false)
	pad := isa.Inst{Seq: 4, Class: isa.ClassNop, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(pad, false) // buffer now full
	signal, seq, _ := pet.Push(pad, false)
	if seq != 1 || !signal {
		t.Fatalf("read-before-overwrite must signal: signal=%v seq=%d", signal, seq)
	}
	if pet.Signalled() != 1 {
		t.Fatalf("Signalled = %d, want 1", pet.Signalled())
	}
}

func TestPETBufferSignalsWithoutOverwriter(t *testing.T) {
	pet := NewPETBuffer(2)
	faulty := isa.Inst{Seq: 1, Class: isa.ClassALU, Dest: isa.IntReg(5), Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(faulty, true)
	pad := isa.Inst{Seq: 2, Class: isa.ClassNop, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(pad, false)
	signal, seq, _ := pet.Push(pad, false) // evicts faulty, window too small
	if seq != 1 || !signal {
		t.Fatal("absence of an overwriting instruction must signal")
	}
}

func TestPETBufferDrain(t *testing.T) {
	pet := NewPETBuffer(8)
	faulty := isa.Inst{Seq: 1, Class: isa.ClassALU, Dest: isa.IntReg(5), Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(faulty, true)
	over := isa.Inst{Seq: 2, Class: isa.ClassALU, Dest: isa.IntReg(5), Src1: isa.IntReg(2), Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(over, false)
	if seqs := pet.Drain(); len(seqs) != 0 {
		t.Fatalf("drain signalled %v, want none (overwrite logged)", seqs)
	}
	if pet.Len() != 0 {
		t.Fatal("buffer not empty after drain")
	}

	pet2 := NewPETBuffer(8)
	pet2.Push(faulty, true) // no overwriter at all
	if seqs := pet2.Drain(); len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("drain = %v, want [1]", seqs)
	}
}

func TestPETBufferSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPETBuffer(0) did not panic")
		}
	}()
	NewPETBuffer(0)
}

func TestPETIgnoresNeutralAndPredFalseReads(t *testing.T) {
	pet := NewPETBuffer(4)
	faulty := isa.Inst{Seq: 1, Class: isa.ClassALU, Dest: isa.IntReg(5), Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(faulty, true)
	// A prefetch "reading" r5 is not an architectural consumer.
	pf := isa.Inst{Seq: 2, Class: isa.ClassPrefetch, Dest: isa.RegNone, Src1: isa.IntReg(5), Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(pf, false)
	over := isa.Inst{Seq: 3, Class: isa.ClassALU, Dest: isa.IntReg(5), Src1: isa.IntReg(2), Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(over, false)
	pad := isa.Inst{Seq: 4, Class: isa.ClassNop, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, PredGuard: isa.RegNone}
	pet.Push(pad, false) // buffer now full
	signal, seq, _ := pet.Push(pad, false)
	if seq != 1 || signal {
		t.Fatal("prefetch read should not defeat the FDD proof")
	}
}

// engineVerdict runs an engine at the given level over the builder's log.
func engineVerdict(level ace.TrackLevel, log []isa.Inst, faultIdx int, field isa.Field) Verdict {
	e := NewEngine(level)
	return e.Process(NewIndex(log), faultIdx, field)
}

func TestEnginePlainParitySignalsEverything(t *testing.T) {
	b := &logBuilder{}
	n := b.nop()
	if v := engineVerdict(ace.TrackNever, b.log, n, isa.FieldImm); v != VerdictSignalled {
		t.Fatalf("plain parity verdict = %v, want signalled", v)
	}
}

func TestEngineCommitSuppressesPredFalse(t *testing.T) {
	b := &logBuilder{}
	pf := b.add(isa.Inst{Class: isa.ClassALU, Dest: isa.IntReg(5), Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.PredReg(1), PredFalse: true})
	if v := engineVerdict(ace.TrackCommit, b.log, pf, isa.FieldImm); v != VerdictSuppressed {
		t.Fatalf("pred-false verdict = %v, want suppressed", v)
	}
	// But a live ALU op signals at commit.
	live := b.alu(isa.IntReg(6), isa.IntReg(1), isa.RegNone)
	if v := engineVerdict(ace.TrackCommit, b.log, live, isa.FieldImm); v != VerdictSignalled {
		t.Fatal("live instruction at TrackCommit should signal")
	}
}

func TestEngineAntiPi(t *testing.T) {
	b := &logBuilder{}
	n := b.nop()
	// Non-opcode strike on a nop: suppressed by the anti-π bit.
	if v := engineVerdict(ace.TrackAntiPi, b.log, n, isa.FieldImm); v != VerdictSuppressed {
		t.Fatalf("anti-π verdict = %v, want suppressed", v)
	}
	// Opcode strike on a nop could turn it into a real op: must signal.
	if v := engineVerdict(ace.TrackAntiPi, b.log, n, isa.FieldOpcode); v != VerdictSignalled {
		t.Fatal("opcode strike on neutral must signal")
	}
	// Without anti-π (TrackCommit), even the imm strike signals.
	if v := engineVerdict(ace.TrackCommit, b.log, n, isa.FieldImm); v != VerdictSignalled {
		t.Fatal("neutral without anti-π must signal")
	}
}

func TestEnginePETProvesFDD(t *testing.T) {
	b := &logBuilder{}
	f := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // overwrite soon
	if v := engineVerdict(ace.TrackPET, b.log, f, isa.FieldImm); v != VerdictSuppressed {
		t.Fatalf("PET verdict = %v, want suppressed", v)
	}
}

func TestEnginePETWindowLimit(t *testing.T) {
	b := &logBuilder{}
	f := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	for i := 0; i < 700; i++ {
		b.nop()
	}
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // overwrite beyond 512
	e := NewEngine(ace.TrackPET)                     // 512 entries
	if v := e.Process(NewIndex(b.log), f, isa.FieldImm); v != VerdictSignalled {
		t.Fatalf("overwrite outside PET window: verdict = %v, want signalled", v)
	}
	// A 1024-entry PET covers it.
	e.PETEntries = 1024
	if v := e.Process(NewIndex(b.log), f, isa.FieldImm); v != VerdictSuppressed {
		t.Fatal("1024-entry PET should prove the FDD")
	}
}

func TestEnginePETStoreSignals(t *testing.T) {
	b := &logBuilder{}
	st := b.store(isa.IntReg(1), 0x100)
	if v := engineVerdict(ace.TrackPET, b.log, st, isa.FieldImm); v != VerdictSignalled {
		t.Fatal("PET cannot prove stores dead; must signal")
	}
}

func TestEngineRegFile(t *testing.T) {
	b := &logBuilder{}
	f := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // overwrite, unread
	if v := engineVerdict(ace.TrackRegFile, b.log, f, isa.FieldImm); v != VerdictSuppressed {
		t.Fatalf("regfile π overwrite verdict = %v, want suppressed", v)
	}

	b2 := &logBuilder{}
	f2 := b2.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b2.alu(isa.IntReg(6), isa.IntReg(5), isa.RegNone) // read: signal
	if v := engineVerdict(ace.TrackRegFile, b2.log, f2, isa.FieldImm); v != VerdictSignalled {
		t.Fatal("read of a poisoned register must signal at TrackRegFile")
	}
}

func TestEngineStoreBufferTracksTDD(t *testing.T) {
	// TDD chain: faulty producer read by a consumer that is itself
	// overwritten without reaching a store — store-buffer tracking proves
	// the whole chain harmless where TrackRegFile would have signalled.
	b := &logBuilder{}
	f := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.alu(isa.IntReg(6), isa.IntReg(5), isa.RegNone) // consumer (π propagates)
	b.alu(isa.IntReg(6), isa.IntReg(2), isa.RegNone) // overwrite consumer
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // overwrite producer
	if v := engineVerdict(ace.TrackRegFile, b.log, f, isa.FieldImm); v != VerdictSignalled {
		t.Fatal("regfile level should signal on the TDD read")
	}
	if v := engineVerdict(ace.TrackStoreBuffer, b.log, f, isa.FieldImm); v != VerdictSuppressed {
		t.Fatal("store-buffer level should prove the TDD chain harmless")
	}
}

func TestEngineStoreBufferSignalsLiveStore(t *testing.T) {
	b := &logBuilder{}
	f := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.store(isa.IntReg(5), 0x100) // possibly-incorrect value reaches memory
	if v := engineVerdict(ace.TrackStoreBuffer, b.log, f, isa.FieldImm); v != VerdictSignalled {
		t.Fatal("π value committed by a store must signal at TrackStoreBuffer")
	}
}

func TestEngineStoreBufferSignalsBranch(t *testing.T) {
	b := &logBuilder{}
	f := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.branch(isa.IntReg(5)) // control consumes a poisoned value
	if v := engineVerdict(ace.TrackStoreBuffer, b.log, f, isa.FieldImm); v != VerdictSignalled {
		t.Fatal("π value consumed by control flow must signal")
	}
}

func TestEngineMemoryTracksDeadStore(t *testing.T) {
	// A poisoned value stored to memory and overwritten before any load:
	// only full memory tracking (design 4) proves it harmless.
	b := &logBuilder{}
	f := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.store(isa.IntReg(5), 0x200)                    // π into memory
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // clear reg π
	b.store(isa.IntReg(2), 0x200)                    // overwrite memory unread
	if v := engineVerdict(ace.TrackStoreBuffer, b.log, f, isa.FieldImm); v != VerdictSignalled {
		t.Fatal("store-buffer level signals when the value reaches memory")
	}
	if v := engineVerdict(ace.TrackMemory, b.log, f, isa.FieldImm); v != VerdictSuppressed {
		t.Fatal("memory level should track the dead store to suppression")
	}
}

func TestEngineMemoryLoadPicksUpPi(t *testing.T) {
	b := &logBuilder{}
	f := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.store(isa.IntReg(5), 0x300)                    // π into memory
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // clear reg π
	b.load(isa.IntReg(7), 0x300)                     // load picks π up
	b.branch(isa.IntReg(7))                          // consumed by control: signal
	if v := engineVerdict(ace.TrackMemory, b.log, f, isa.FieldImm); v != VerdictSignalled {
		t.Fatal("π loaded from memory and consumed by control must signal")
	}
}

func TestEngineMemoryFaultyStoreDirect(t *testing.T) {
	b := &logBuilder{}
	st := b.store(isa.IntReg(1), 0x400)
	b.store(isa.IntReg(2), 0x400) // overwrite unread
	if v := engineVerdict(ace.TrackMemory, b.log, st, isa.FieldImm); v != VerdictSuppressed {
		t.Fatal("faulty dead store should be suppressed under memory tracking")
	}
	b2 := &logBuilder{}
	st2 := b2.store(isa.IntReg(1), 0x500)
	b2.load(isa.IntReg(7), 0x500)
	b2.branch(isa.IntReg(7))
	if v := engineVerdict(ace.TrackMemory, b2.log, st2, isa.FieldImm); v != VerdictSignalled {
		t.Fatal("faulty live store consumed by control must signal")
	}
}

func TestEngineLatentAtWindowEnd(t *testing.T) {
	b := &logBuilder{}
	f := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.nop() // log ends with π still live
	if v := engineVerdict(ace.TrackRegFile, b.log, f, isa.FieldImm); v != VerdictLatent {
		t.Fatalf("live-out π verdict = %v, want latent", v)
	}
}

func TestEngineWrongPathSuppressed(t *testing.T) {
	b := &logBuilder{}
	wp := b.add(isa.Inst{Class: isa.ClassALU, Dest: isa.IntReg(5), Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone, WrongPath: true})
	if v := engineVerdict(ace.TrackCommit, b.log, wp, isa.FieldImm); v != VerdictSuppressed {
		t.Fatal("wrong-path instruction must be suppressed at commit")
	}
}

func TestEngineProcessPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range fault index did not panic")
		}
	}()
	NewEngine(ace.TrackCommit).Process(NewIndex(nil), 0, isa.FieldImm)
}

func TestVerdictString(t *testing.T) {
	if VerdictSuppressed.String() != "suppressed" ||
		VerdictSignalled.String() != "signalled" ||
		VerdictLatent.String() != "latent" {
		t.Error("verdict names wrong")
	}
	if Verdict(9).String() == "" {
		t.Error("unknown verdict should render")
	}
}
