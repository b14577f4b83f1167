package pibit

import "softerror/internal/isa"

// blockShift sizes the index's summary blocks: one machine word of
// positions, 64 committed instructions.
const blockShift = 6

// blockEnd returns the first log position of the block after position i's.
func blockEnd(i int) int { return (i>>blockShift + 1) << blockShift }

// Index is a commit log prepared for π replay. Each instruction is
// reduced to an op: the registers it reads and writes as the tracking
// hardware counts them, and how it treats a poisoned value. Every 64-position
// block is summarised by the registers its ops name and, as a one-word
// hashed filter, the addresses its loads and stores touch. A replay skips
// any block whose summary misses the poisoned state, so a strike costs
// what its poisoned values touch rather than its window. Build an Index
// once per log; it is read-only afterwards and safe to share across
// goroutines.
type Index struct {
	log    []isa.Inst
	ops    []op
	blocks []blockSummary
}

// opKind is how an instruction treats a poisoned input.
type opKind uint8

const (
	opPlain   opKind = iota // propagates π into its destination
	opNeutral               // a neutral type: consumes nothing, clears nothing
	opLoad                  // an executed load: may pick π up from memory
	opStore                 // an executed store: poisons or cleans a memory block
	opSignal                // control flow or I/O: cannot defer π
)

// op is one committed instruction as the π replay reads it, its registers
// as slots. A source is noSlot where the instruction does not
// architecturally read it:
// neutral instructions read nothing, and a pred-false one reads only its
// guard. dest is set only when the instruction writes it; the PET buffer
// counts a neutral instruction's write as an overwrite, the dataflow
// replay ignores it.
type op struct {
	guard, src1, src2, dest regSlot
	kind                    opKind
	predFalse               bool
}

// makeOp reduces an instruction to its op.
func makeOp(in *isa.Inst) op {
	o := op{guard: noSlot, src1: noSlot, src2: noSlot, dest: noSlot}
	if in.HasDest() {
		o.dest = slotOf(in.Dest)
	}
	if in.Class.Neutral() {
		o.kind = opNeutral
		return o
	}
	o.guard, o.predFalse = slotOf(in.PredGuard), in.PredFalse
	if !in.PredFalse {
		o.src1, o.src2 = slotOf(in.Src1), slotOf(in.Src2)
	}
	switch {
	case in.Class.IsControl() || in.Class == isa.ClassIO:
		o.kind = opSignal
	case in.PredFalse:
	case in.Class == isa.ClassLoad:
		o.kind = opLoad
	case in.Class == isa.ClassStore:
		o.kind = opStore
	}
	return o
}

// blockSummary over-approximates what one block's ops can touch.
type blockSummary struct {
	regs  regBits // every register an op names
	addrs uint64  // OR of addrBit over load and store addresses
}

// NewIndex prepares a committed instruction log (program order) for π
// replay. The index aliases log, which must not change while it is in use.
func NewIndex(log []isa.Inst) *Index {
	ix := &Index{
		log:    log,
		ops:    make([]op, len(log)),
		blocks: make([]blockSummary, (len(log)+1<<blockShift-1)>>blockShift),
	}
	for i := range log {
		o, b := makeOp(&log[i]), &ix.blocks[i>>blockShift]
		ix.ops[i] = o
		b.regs.set(o.guard)
		b.regs.set(o.src1)
		b.regs.set(o.src2)
		b.regs.set(o.dest)
		if o.kind == opLoad || o.kind == opStore {
			b.addrs |= addrBit(log[i].Addr)
		}
	}
	return ix
}

// touches reports whether any instruction of the block may read, write,
// load or store π state. A false answer is exact: every register the block
// names is clean and no address it touches can be poisoned.
func (b *blockSummary) touches(pi *piState) bool {
	if b.addrs&pi.mem.filter != 0 {
		return true
	}
	for w := range b.regs {
		if b.regs[w]&pi.regs.bits[w] != 0 {
			return true
		}
	}
	return false
}

// addrBit hashes a memory block address to one bit of a filter word
// (Fibonacci hashing: the top six bits of a multiplicative hash).
func addrBit(a uint64) uint64 {
	return 1 << (a * 0x9e3779b97f4a7c15 >> 58)
}
