package pipeline

import (
	"fmt"

	"softerror/internal/cache"
	"softerror/internal/isa"
)

// Source supplies the dynamic instruction stream. Next returns the next
// correct-path instruction; NextWrong synthesises a wrong-path instruction
// fetched past an unresolved mispredicted branch. Both share one
// sequence-number space in fetch order.
type Source interface {
	Next() isa.Inst
	NextWrong() isa.Inst
}

// watchdogCycles bounds forward-progress stalls; exceeding it indicates a
// simulator bug, not a workload property.
const watchdogCycles = 500_000

type iqEntry struct {
	inst    isa.Inst
	enq     uint64
	issued  bool
	issue   uint64
	evictAt uint64 // valid once issued
}

type sbEntry struct {
	inst    isa.Inst
	enq     uint64
	drainAt uint64
}

type feEntry struct {
	inst    isa.Inst
	fetched uint64
	readyAt uint64
}

// Pipeline is the single-step reference interpreter of the core model: it
// pulls full instructions from a Source and steps every cycle, with no
// event-horizon skipping and no shared stream. Production runs use the
// lane engine (RunBatchStreamArena); this engine stays as the independent
// oracle the lane engine is pinned against, phase for phase, and as a
// plain trace producer for tests and examples. Create one per run with
// New; a Pipeline is not safe for concurrent use and cannot be restarted
// after Run.
type Pipeline struct {
	cfg Config
	src Source
	mem *cache.Hierarchy

	cycle    uint64
	regReady [isa.NumRegs]uint64

	iq          []iqEntry
	frontEnd    []feEntry
	sb          []sbEntry
	storeAddrs  map[uint64]int // live forwarding stores (store buffer or LSQ), refcounted
	refetch     []isa.Inst
	refetchHead int // index of the next refetch victim (popped O(1))
	feCap       int
	issuePtr    int // index of oldest unissued IQ entry (scan hint)

	// pendingInst parks an instruction whose front-end delivery gap
	// (Inst.FetchBubble) is being charged; it is fetched once the gap
	// elapses.
	pendingInst isa.Inst
	havePending bool

	wrongMode   bool
	wrongSrcSeq uint64 // Seq of the unresolved mispredicted branch
	resolveAt   uint64 // cycle the outstanding mispredict redirects; 0 = none scheduled
	missQueue

	// Out-of-order family state (see ooo.go); nil/zero for in-order.
	ooo  bool
	rob  []robEntry
	lsq  []lsqEntry
	tage tageState

	stats Stats
	rec   *TraceRecorder // nil unless Run records
}

// New builds a pipeline over the given instruction source and data-cache
// hierarchy. The hierarchy may be pre-warmed and is shared state: the
// caller owns it.
func New(cfg Config, src Source, mem *cache.Hierarchy) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil || mem == nil {
		return nil, fmt.Errorf("pipeline: nil source or memory")
	}
	cfg = cfg.Normalized()
	p := &Pipeline{
		cfg:   cfg,
		src:   src,
		mem:   mem,
		feCap: cfg.FrontEndCap(),
	}
	// Pre-size every queue to its structural bound (the refetch queue to a
	// worst-case squash's victim count) so the steady state never grows a
	// slice.
	p.iq = make([]iqEntry, 0, cfg.IQSize)
	p.frontEnd = make([]feEntry, 0, p.feCap)
	p.sb = make([]sbEntry, 0, cfg.StoreBufferSize)
	p.storeAddrs = make(map[uint64]int, max(cfg.StoreBufferSize, cfg.LSQSize))
	p.refetch = make([]isa.Inst, 0, cfg.IQSize+p.feCap)
	p.squashQ = make([]squashEvent, 0, 8)
	p.throttleQ = make([]throttleEvent, 0, 8)
	if cfg.OutOfOrder {
		p.ooo = true
		p.rob = make([]robEntry, 0, cfg.ROBSize)
		p.lsq = make([]lsqEntry, 0, cfg.LSQSize)
		p.tage.init(&cfg, make([]uint64, cfg.TAGETables<<cfg.TAGETableBits))
	}
	return p, nil
}

// MustNew is New for statically valid arguments.
func MustNew(cfg Config, src Source, mem *cache.Hierarchy) *Pipeline {
	p, err := New(cfg, src, mem)
	if err != nil {
		panic(err)
	}
	return p
}

// Run simulates one cycle at a time until the given number of correct-path
// instructions have committed, then closes the residencies still in
// flight, clipped at the final cycle so occupancy integrals stay
// consistent, and returns the trace. record controls whether residencies
// and the commit log are captured (disable for warm-up runs).
func (p *Pipeline) Run(commits uint64, record bool) *Trace {
	if record {
		p.rec = NewTraceRecorder(p.cfg, commits)
	}
	lastCommitCycle := uint64(0)
	lastCommits := uint64(0)
	for p.stats.Commits < commits {
		p.step()
		if p.stats.Commits != lastCommits {
			lastCommits = p.stats.Commits
			lastCommitCycle = p.cycle
		} else if p.cycle-lastCommitCycle > watchdogCycles {
			panic(fmt.Sprintf(
				"pipeline: no commit for %d cycles at cycle %d (iq=%d fe=%d refetch=%d wrong=%v stall=%d)",
				watchdogCycles, p.cycle, len(p.iq), len(p.frontEnd), p.refetchLen(), p.wrongMode, p.stallUntil))
		}
	}
	p.stats.Cycles = p.cycle
	if p.rec == nil {
		return NewTraceRecorder(p.cfg, 0).Trace(p.stats)
	}
	for i := range p.iq {
		p.recordResidency(&p.iq[i], p.cycle, false)
	}
	for i := range p.frontEnd {
		p.recordFrontEnd(&p.frontEnd[i], p.cycle, false)
	}
	for i := range p.sb {
		e := &p.sb[i]
		p.rec.OnStoreBuffer(Residency{
			Inst: e.inst, Enq: e.enq, Evict: p.cycle,
			Issued: true, Issue: p.cycle,
		})
	}
	if p.ooo {
		p.oooFlushEnd(p.cycle)
	}
	return p.rec.Trace(p.stats)
}

// step advances one cycle.
func (p *Pipeline) step() {
	now := p.cycle
	if p.ooo {
		p.drainLSQ(now)
	} else {
		p.drainStores(now)
	}
	p.resolveBranch(now)
	p.missQueue.applySquashes(now, p.doSquash)
	p.stats.ThrottleEvents += p.applyThrottles(now)
	if p.ooo {
		p.retire(now)
	}
	p.evict(now)
	p.issue(now)
	p.deliver(now)
	p.fetch(now)
	p.cycle++
}

// recordResidency reports a residency for e ending at evict.
func (p *Pipeline) recordResidency(e *iqEntry, evict uint64, squashed bool) {
	if p.rec == nil {
		return
	}
	p.rec.OnResidency(Residency{
		Inst:     e.inst,
		Enq:      e.enq,
		Evict:    evict,
		Issued:   e.issued,
		Issue:    e.issue,
		Squashed: squashed,
	})
}

// resolveBranch redirects fetch when the outstanding mispredicted branch
// reaches its resolution cycle, flushing wrong-path state everywhere.
func (p *Pipeline) resolveBranch(now uint64) {
	if p.resolveAt == 0 || now < p.resolveAt {
		return
	}
	p.resolveAt = 0
	p.wrongMode = false
	// Flush wrong-path entries from the IQ.
	kept := p.iq[:0]
	for i := range p.iq {
		e := &p.iq[i]
		if e.inst.WrongPath {
			p.stats.WrongFlushes++
			p.recordResidency(e, now, !e.issued)
			continue
		}
		kept = append(kept, *e)
	}
	p.iq = kept
	p.issuePtr = 0
	// Flush wrong-path entries from the front end.
	keptFE := p.frontEnd[:0]
	for i := range p.frontEnd {
		fe := &p.frontEnd[i]
		if fe.inst.WrongPath {
			p.stats.WrongFlushes++
			p.recordFrontEnd(fe, now, false)
			continue
		}
		keptFE = append(keptFE, *fe)
	}
	p.frontEnd = keptFE
	if p.ooo {
		p.oooFlushWrong(now)
	}
}

// doSquash removes every unissued IQ entry younger than the triggering
// load, flushes the front end the same way, queues correct-path victims for
// refetch, and stalls fetch until the miss returns.
func (p *Pipeline) doSquash(now uint64, ev squashEvent) {
	p.stats.Squashes++
	kept := p.iq[:0]
	for i := range p.iq {
		e := &p.iq[i]
		if e.issued || e.inst.Seq <= ev.loadSeq {
			kept = append(kept, *e)
			continue
		}
		p.stats.SquashedEntries++
		p.recordResidency(e, now, true)
		p.squashVictim(e.inst)
	}
	p.iq = kept
	p.issuePtr = 0

	keptFE := p.frontEnd[:0]
	for i := range p.frontEnd {
		fe := &p.frontEnd[i]
		if fe.inst.Seq <= ev.loadSeq {
			keptFE = append(keptFE, *fe)
			continue
		}
		p.stats.SquashedEntries++
		p.recordFrontEnd(fe, now, false)
		p.squashVictim(fe.inst)
	}
	p.frontEnd = keptFE
	if p.ooo {
		p.oooSquash(now, ev)
	}

	if p.refetchHead > 0 {
		m := copy(p.refetch, p.refetch[p.refetchHead:])
		p.refetch = p.refetch[:m]
		p.refetchHead = 0
	}
	sortRefetch(p.refetch, func(in *isa.Inst) uint64 { return in.Seq })
	p.squashRestart(now, ev.missReturn, p.cfg.RefetchOverlap)
}

// squashVictim routes one squashed instruction: correct-path instructions
// are refetched later under the same Seq; wrong-path ones are dropped. If
// the unresolved mispredicted branch itself is squashed, wrong-path fetch
// mode ends (it will re-trigger on refetch).
func (p *Pipeline) squashVictim(in isa.Inst) {
	if in.WrongPath {
		return
	}
	p.refetch = append(p.refetch, in)
	p.stats.Refetches++
	if p.wrongMode && in.Seq == p.wrongSrcSeq {
		p.wrongMode = false
	}
}

// refetchLen is the number of squash victims still awaiting refetch.
func (p *Pipeline) refetchLen() int {
	return len(p.refetch) - p.refetchHead
}

// evict retires issued entries from the queue head once their replay window
// closes.
func (p *Pipeline) evict(now uint64) {
	n := 0
	for n < len(p.iq) {
		e := &p.iq[n]
		if !e.issued || now < e.evictAt {
			break
		}
		p.recordResidency(e, now, false)
		n++
	}
	if n > 0 {
		m := copy(p.iq, p.iq[n:])
		p.iq = p.iq[:m]
		p.issuePtr -= n
		if p.issuePtr < 0 {
			p.issuePtr = 0
		}
	}
}

// issue performs scoreboarded issue: up to IssueWidth instructions per
// cycle. In-order mode stops at the first unissued instruction with an
// unready operand (stall-on-use); out-of-order mode skips stalled entries
// and issues any ready instruction, oldest first. Wrong-path instructions
// are always ready: their operands are speculative garbage. The store
// buffer stays empty out of order, so it never blocks a store there.
func (p *Pipeline) issue(now uint64) {
	issued := 0
	for i := p.issuePtr; i < len(p.iq) && issued < p.cfg.IssueWidth; i++ {
		e := &p.iq[i]
		if e.issued {
			continue
		}
		if !e.inst.WrongPath && readyAt(&p.regReady, &e.inst, len(p.sb) >= p.cfg.StoreBufferSize) > now {
			if p.cfg.OutOfOrder {
				continue // skip the stalled entry, look younger
			}
			return // in-order: nothing younger may issue
		}
		p.execute(e, now)
		issued++
		if i == p.issuePtr {
			p.issuePtr = i + 1
		}
	}
}

// execute issues one entry: reads it (the parity-check point), performs its
// side effects, and schedules its eviction — and, out of order, its ROB
// entry's retire. Wrong-path instructions consume an issue slot and
// nothing more; predicated-false ones commit without executing.
func (p *Pipeline) execute(e *iqEntry, now uint64) {
	e.issued = true
	e.issue = now
	e.evictAt = now + uint64(p.cfg.ReplayWindow)
	in := &e.inst
	if !in.WrongPath {
		p.stats.Commits++
		if p.rec != nil {
			p.rec.OnCommit(*in, e.enq, now)
		}
	}

	done := now + 1 // earliest ROB retire; refined per class below
	if !in.WrongPath && !in.PredFalse {
		switch in.Class {
		case isa.ClassALU:
			done = now + uint64(p.cfg.ALULatency)
			writeDest(&p.regReady, in, done)
		case isa.ClassFPU:
			done = now + uint64(p.cfg.FPLatency)
			writeDest(&p.regReady, in, done)
		case isa.ClassLoad:
			if p.storeAddrs[in.Addr] > 0 {
				// Store-to-load forwarding: no cache access, no miss
				// trigger.
				p.stats.ForwardedLoads++
				writeDest(&p.regReady, in, now+1)
				break
			}
			res := p.mem.Access(in.Addr, false)
			p.stats.LoadsByLevel[res.Level]++
			done = now + uint64(res.Latency)
			writeDest(&p.regReady, in, done)
			p.trigger(&p.cfg, p.mem, in.Seq, res, now)
		case isa.ClassStore:
			// Out of order the LSQ entry was allocated at dispatch;
			// either way executing opens the store's forwarding window,
			// which lasts until it drains.
			if !p.ooo {
				p.sb = append(p.sb, sbEntry{
					inst:    *in,
					enq:     now,
					drainAt: now + uint64(p.cfg.StoreDrainLatency),
				})
			}
			p.storeAddrs[in.Addr]++
		case isa.ClassIO:
			p.mem.Access(in.Addr, true)
		case isa.ClassPrefetch:
			p.mem.Prefetch(in.Addr)
		case isa.ClassBranch, isa.ClassCall, isa.ClassReturn:
			if in.Mispred && p.wrongMode && p.wrongSrcSeq == in.Seq {
				p.resolveAt = now + uint64(p.cfg.BranchResolveLatency)
				// The branch retires no earlier than it redirects, so the
				// resolution flush (which runs first in the step) removes
				// its wrong-path successors before they reach the ROB head.
				done = p.resolveAt
			}
		case isa.ClassNop, isa.ClassHint:
			// No effects.
		}
	}
	if p.ooo {
		p.robComplete(in.Seq, done)
	}
}

// releaseStore closes one drained store's forwarding window.
func (p *Pipeline) releaseStore(addr uint64) {
	if n := p.storeAddrs[addr]; n <= 1 {
		delete(p.storeAddrs, addr)
	} else {
		p.storeAddrs[addr] = n - 1
	}
}

// drainStores retires at most one store per cycle from the buffer head to
// the cache, reporting its residency (the drain is the read point: the
// value is committed to memory).
func (p *Pipeline) drainStores(now uint64) {
	if len(p.sb) == 0 {
		return
	}
	e := &p.sb[0]
	if now < e.drainAt {
		return
	}
	p.mem.Access(e.inst.Addr, true)
	if p.rec != nil {
		p.rec.OnStoreBuffer(Residency{
			Inst:   e.inst,
			Enq:    e.enq,
			Evict:  now,
			Issued: true,
			Issue:  now,
		})
	}
	p.releaseStore(e.inst.Addr)
	m := copy(p.sb, p.sb[1:])
	p.sb = p.sb[:m]
}

// deliver moves instructions that have traversed the front end into the IQ,
// in order, while space remains.
func (p *Pipeline) deliver(now uint64) {
	n := 0
	for n < len(p.frontEnd) {
		fe := &p.frontEnd[n]
		if fe.readyAt > now || len(p.iq) >= p.cfg.IQSize {
			break
		}
		if p.ooo {
			if !admits(&p.cfg, len(p.rob), len(p.lsq), fe.inst.Class) {
				break
			}
			p.oooDispatch(&fe.inst, now)
		}
		p.iq = append(p.iq, iqEntry{inst: fe.inst, enq: now})
		p.recordFrontEnd(fe, now, true)
		n++
	}
	if n > 0 {
		m := copy(p.frontEnd, p.frontEnd[n:])
		p.frontEnd = p.frontEnd[:m]
	}
}

// recordFrontEnd reports one fetch-buffer occupancy interval: delivered
// entries are read into decode (the front end's parity-check point);
// flushed ones never are.
func (p *Pipeline) recordFrontEnd(fe *feEntry, until uint64, delivered bool) {
	if p.rec == nil {
		return
	}
	p.rec.OnFrontEnd(Residency{
		Inst:     fe.inst,
		Enq:      fe.fetched,
		Evict:    until,
		Issued:   delivered,
		Issue:    until,
		Squashed: !delivered,
	})
}

// fetch brings up to FetchWidth instructions into the front end, honouring
// squash/throttle stalls and front-end capacity. Sources in priority order:
// the refetch queue, then the wrong-path synthesiser (when an unresolved
// mispredict is outstanding), then the correct-path stream.
func (p *Pipeline) fetch(now uint64) {
	if now < p.stallUntil {
		p.stats.FetchStallCycles++
		return
	}
	if len(p.frontEnd) >= p.feCap {
		return
	}
	readyAt := now + uint64(p.cfg.FrontEndDepth)
	for i := 0; i < p.cfg.FetchWidth && len(p.frontEnd) < p.feCap; i++ {
		var in isa.Inst
		switch {
		case p.refetchHead < len(p.refetch) && !p.wrongMode:
			// Refetched instructions are older than any parked pending
			// instruction and hit a warm I-cache (no delivery gap).
			in = p.refetch[p.refetchHead]
			p.refetchHead++
			if p.refetchHead == len(p.refetch) {
				p.refetch = p.refetch[:0]
				p.refetchHead = 0
			}
		case p.havePending:
			in = p.pendingInst
			p.havePending = false
		case p.wrongMode:
			in = p.src.NextWrong()
		default:
			in = p.src.Next()
		}
		if in.FetchBubble > 0 {
			// Charge the front-end delivery gap (I-cache/ITLB miss,
			// dispersal break) and park the instruction until it elapses.
			until := now + uint64(in.FetchBubble)
			if until > p.stallUntil {
				p.stallUntil = until
			}
			in.FetchBubble = 0
			p.pendingInst = in
			p.havePending = true
			return
		}
		if in.Seq > p.stats.MaxSeq {
			p.stats.MaxSeq = in.Seq
		}
		p.frontEnd = append(p.frontEnd, feEntry{inst: in, fetched: now, readyAt: readyAt})
		// A freshly fetched mispredicted control instruction flips fetch
		// into wrong-path mode for the rest of this cycle and beyond.
		if !in.WrongPath && in.Class.IsControl() && in.Mispred && !p.wrongMode {
			p.wrongMode = true
			p.wrongSrcSeq = in.Seq
		}
	}
}
