package pibit

import (
	"fmt"
	"slices"
	"sort"

	"softerror/internal/isa"
)

// blockShift sizes the index's summary blocks: one machine word of
// positions, 64 committed instructions.
const blockShift = 6

// blockEnd returns the first log position of the block after position i's.
func blockEnd(i int) int { return (i>>blockShift + 1) << blockShift }

// Index is a commit log prepared for π replay. Each instruction is
// reduced to an op: the registers it reads and writes as the tracking
// hardware counts them, how it treats a poisoned value, and the flags a
// fault on it is first judged by. The index keeps each position's op and
// memory address and nothing else of the instruction, 18 bytes a commit.
// Every 64-position block is summarised by the registers its ops name
// and, as a one-word hashed filter, the addresses its loads and stores
// touch. A replay skips any block whose summary misses the poisoned
// state, so a strike costs what its poisoned values touch rather than its
// window. Build an Index once per log, with NewIndex or with Append and
// Seal; it is read-only afterwards and safe to share across goroutines.
type Index struct {
	ops    []op
	addrs  []uint64 // each position's effective address
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

// opFlags are the instruction bits an op's kind and slots do not carry:
// Process judges the faulty instruction by them before any replay, and a
// step reads opPredFalse.
type opFlags uint8

const (
	opPredFalse opFlags = 1 << iota // qualifying predicate evaluated false
	opWrongPath                     // fetched past a mispredicted branch
	opHasDest                       // architecturally writes its destination
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
	flags                   opFlags
}

// makeOp reduces an instruction to its op.
func makeOp(in *isa.Inst) op {
	o := op{guard: noSlot, src1: noSlot, src2: noSlot, dest: noSlot}
	if in.PredFalse {
		o.flags |= opPredFalse
	}
	if in.WrongPath {
		o.flags |= opWrongPath
	}
	if in.HasDest() {
		o.dest = slotOf(in.Dest)
		o.flags |= opHasDest
	}
	if in.Class.Neutral() {
		o.kind = opNeutral
		return o
	}
	o.guard = slotOf(in.PredGuard)
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

func (o *op) has(f opFlags) bool { return o.flags&f != 0 }

// blockSummary over-approximates what one block's ops can touch.
type blockSummary struct {
	regs  regBits // every register an op names
	addrs uint64  // OR of addrBit over load and store addresses
}

// NewIndex prepares a committed instruction log (program order) for π
// replay. The index copies what replay reads out of log, which may change
// or be dropped afterwards.
func NewIndex(log []isa.Inst) *Index {
	ix := &Index{}
	ix.Reset(len(log))
	for i := range log {
		ix.Append(&log[i])
	}
	ix.Seal(nil)
	return ix
}

// Reset empties the index for reuse, keeping its buffers; n pre-sizes it
// for that many appends (pass 0 when unknown).
func (ix *Index) Reset(n int) {
	ix.ops, ix.addrs, ix.blocks = ix.ops[:0], ix.addrs[:0], ix.blocks[:0]
	if n > cap(ix.ops) {
		ix.ops, ix.addrs = make([]op, 0, n), make([]uint64, 0, n)
	}
}

// Append adds in at the next log position, keeping only its op and
// address. An index built by appending must be sealed before replay.
func (ix *Index) Append(in *isa.Inst) {
	ix.ops = append(ix.ops, makeOp(in))
	ix.addrs = append(ix.addrs, in.Addr)
}

// Seal readies an appended index for replay. When keys is non-nil it
// holds one key per position, and positions whose keys do not ascend are
// first reordered, keys with them, into ascending key order: commits
// appended in dataflow order, keyed by Seq, come back to program order.
// Seal then summarises the blocks.
func (ix *Index) Seal(keys []uint64) {
	if keys != nil && len(keys) != len(ix.ops) {
		panic(fmt.Sprintf("pibit: %d keys for %d log positions", len(keys), len(ix.ops)))
	}
	if keys != nil && !slices.IsSorted(keys) {
		sort.Sort(byKey{keys, ix})
	}
	n := (len(ix.ops) + 1<<blockShift - 1) >> blockShift
	ix.blocks = slices.Grow(ix.blocks[:0], n)[:n]
	clear(ix.blocks)
	for i := range ix.ops {
		o, b := &ix.ops[i], &ix.blocks[i>>blockShift]
		b.regs.set(o.guard)
		b.regs.set(o.src1)
		b.regs.set(o.src2)
		b.regs.set(o.dest)
		if o.kind == opLoad || o.kind == opStore {
			b.addrs |= addrBit(ix.addrs[i])
		}
	}
}

// byKey sorts an index's positions and their keys together.
type byKey struct {
	keys []uint64
	ix   *Index
}

func (s byKey) Len() int           { return len(s.keys) }
func (s byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.ix.ops[i], s.ix.ops[j] = s.ix.ops[j], s.ix.ops[i]
	s.ix.addrs[i], s.ix.addrs[j] = s.ix.addrs[j], s.ix.addrs[i]
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
