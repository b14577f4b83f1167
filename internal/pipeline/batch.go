package pipeline

import (
	"context"
	"fmt"

	"softerror/internal/cache"
	"softerror/internal/isa"
)

// This file is the lane engine, the one production engine of both core
// families: RunBatchStreamArena drives K configuration variants through
// ONE decode of the generated instruction stream. Each lane stores a
// compact (BatchRef, Seq) pair into struct-of-arrays ring buffers and
// reads instruction content through the BatchSource memo, so K variants
// share one generation pass and one L2-resident body window, and it skips
// quiescent cycles to its next event horizon. The single-step reference
// interpreter (pipeline.go) pulls full isa.Inst copies from a Source and
// steps every cycle. Both engines read one set of timing rules (rules.go:
// issue readiness, dispatch admission, miss-event scheduling); each keeps
// its own queue mechanics, event-horizon skipping (lanes only), wrong-path
// relabelling and squash/flush compaction, which the trace-differential
// and batched-independent seraudit checks pin byte-identical against the
// reference.

// BatchSource is the instruction stream a lane fetches from, memoised in
// two sequences: Body(n) is the n-th correct-path instruction in the
// lane-independent coordinates BatchRef relabels (Seq n, PC reduced by 4
// per wrong-path draw fetched before it), Wrong(j) the content of the j-th
// wrong-path draw, and WrongSite(n, j) the fetch PC and call depth of draw
// j taken while body n is the next correct-path fetch. Each source kind
// owns that last relabel. workload.Shared is the decoded-once stream every
// lane of a batch shares; PrivateSource is one lane's own stream for
// workloads whose content depends on the fetch order. Body pointers are
// valid until the next call extends the memo, and a workload.Shared's
// only until its stream is recycled into the next one, so nothing that
// outlives the batch may hold them: lanes shed their snapshots when the
// run returns, and sinks receive copies. Wrong returns its draw by value:
// a shared stream keeps wrong-path draws packed, since their readers need
// only the class, registers and address.
type BatchSource interface {
	Body(n int) *isa.Inst
	Wrong(j int) isa.Inst
	WrongSite(n, j int) (pc uint64, callDepth uint8)
}

// PrivateSource is a BatchSource over one lane's own Source, for streams
// that cannot be decoded once and shared: with a PC-indexed branch
// predictor (gshare, bimodal) every wrong-path draw shifts later PCs, and
// with them the realised mispredict sequence, so the stream depends on
// the lane's configuration. The source calls Next and NextWrong in its
// lane's fetch order, exactly as the reference interpreter does: the lane
// generates body n when it first fetches it and tells the source about
// each wrong-path draw as it fetches it. Body n is memoised at Seq n with its
// PC reduced by 4 per wrong draw so far, which BatchRef relabelling adds
// back; wrong draws keep the PC and call depth they were fetched at, so
// WrongSite never reads a body the lane has not fetched yet. A
// PrivateSource serves exactly one lane of one run.
type PrivateSource struct {
	src   Source
	body  []isa.Inst
	wrong []isa.Inst
}

// NewPrivateSource wraps a fresh Source for one lane.
func NewPrivateSource(src Source) *PrivateSource {
	return &PrivateSource{src: src}
}

// Body implements BatchSource, fetching correct-path instructions from the
// underlying Source up to n.
func (s *PrivateSource) Body(n int) *isa.Inst {
	for len(s.body) <= n {
		in := s.src.Next()
		in.Seq = uint64(len(s.body))
		in.PC -= 4 * uint64(len(s.wrong))
		s.body = append(s.body, in)
	}
	return &s.body[n]
}

// BodyPrefix returns the first m correct-path instructions as a slice
// aliasing the memo, fetching up to m-1 first.
func (s *PrivateSource) BodyPrefix(m int) []isa.Inst {
	if m > 0 {
		s.Body(m - 1)
	}
	return s.body[:m]
}

// Wrong implements BatchSource, drawing wrong-path instructions from the
// underlying Source up to j.
func (s *PrivateSource) Wrong(j int) isa.Inst {
	for len(s.wrong) <= j {
		s.wrong = append(s.wrong, s.src.NextWrong())
	}
	return s.wrong[j]
}

// WrongSite implements BatchSource: a private draw carries the PC and call
// depth it was fetched at.
func (s *PrivateSource) WrongSite(_, j int) (uint64, uint8) {
	in := s.Wrong(j)
	return in.PC, in.CallDepth
}

// BatchRef locates one fetched instruction within a shared stream: the
// correct-path body cursor n, plus a flag marking wrong-path fetches. The
// fetch-order sequence number is carried alongside, and together they
// reconstruct the exact instruction the reference interpreter fetched:
// a lane that has drawn w wrong-path instructions before body position n
// holds Seq n+w, so w (or the wrong-path ordinal j) is Seq minus the body
// cursor.
type BatchRef uint32

const wrongRef BatchRef = 1 << 31

func bodyRef(n int) BatchRef   { return BatchRef(n) }
func wrongAt(n int) BatchRef   { return BatchRef(n) | wrongRef }
func (r BatchRef) Wrong() bool { return r&wrongRef != 0 }
func (r BatchRef) Body() int   { return int(r &^ wrongRef) }

// Inst reconstructs the instruction the reference interpreter would have
// fetched at this reference with the given sequence number: the memoised
// content relabeled into the lane's coordinate system (Seq, PC shifted by
// 4 per preceding wrong-path fetch, wrong-path PC and call depth from the
// source's WrongSite). FetchBubble is zero — the bubble is charged at
// fetch and never visible in a recorded event.
func (r BatchRef) Inst(src BatchSource, seq uint64) isa.Inst {
	n := r.Body()
	if r.Wrong() {
		j := int(seq) - n
		in := src.Wrong(j)
		in.Seq = seq
		in.PC, in.CallDepth = src.WrongSite(n, j)
		return in
	}
	in := *src.Body(n)
	in.Seq = seq
	in.PC += 4 * (seq - uint64(n))
	in.FetchBubble = 0
	return in
}

// BatchSink receives one lane's events in compact form — the (ref, seq)
// pair instead of a materialised isa.Inst — so an index-aware collector
// (ace.BatchCollector) can skip reconstruction entirely. Cycle fields
// carry exactly what the corresponding Sink callback would: commits report
// (enq, issue); residencies the full interval; front-end intervals end at
// `until` with delivered marking decode reads; store-buffer intervals
// drain (or clip) at evict.
type BatchSink interface {
	BatchCommit(ref BatchRef, seq, enq, issue uint64)
	BatchResidency(ref BatchRef, seq, enq, issue, evict uint64, issued, squashed bool)
	BatchFrontEnd(ref BatchRef, seq, fetched, until uint64, delivered bool)
	BatchStoreBuffer(ref BatchRef, seq, enq, evict uint64)
}

// LiftSink is the one way a plain Sink joins a lane: it returns s itself
// when s already speaks BatchSink, nil for a nil sink, and otherwise an
// adapter that reconstructs each event's instruction from the lane's
// source (BatchRef.Inst), so s sees exactly the events the reference
// interpreter delivers to its trace — OnROB/OnLSQ included when s
// implements OOOSink. Every adapter it builds also implements
// BatchOOOSink.
func LiftSink(src BatchSource, s Sink) BatchSink {
	switch t := s.(type) {
	case nil:
		return nil
	case BatchSink:
		return t
	}
	ad := &sinkAdapter{src: src, s: s}
	ad.os, _ = s.(OOOSink)
	return ad
}

// sinkAdapter lifts a plain Sink to a BatchSink by reconstructing each
// event's instruction from the shared stream. os caches the sink's OOOSink
// side (nil when the sink doesn't implement it), so out-of-order events
// forward without a per-event type assertion.
type sinkAdapter struct {
	src BatchSource
	s   Sink
	os  OOOSink
}

func (a *sinkAdapter) BatchCommit(ref BatchRef, seq, enq, issue uint64) {
	a.s.OnCommit(ref.Inst(a.src, seq), enq, issue)
}

func (a *sinkAdapter) BatchResidency(ref BatchRef, seq, enq, issue, evict uint64, issued, squashed bool) {
	a.s.OnResidency(Residency{
		Inst: ref.Inst(a.src, seq), Enq: enq, Evict: evict,
		Issued: issued, Issue: issue, Squashed: squashed,
	})
}

func (a *sinkAdapter) BatchFrontEnd(ref BatchRef, seq, fetched, until uint64, delivered bool) {
	a.s.OnFrontEnd(Residency{
		Inst: ref.Inst(a.src, seq), Enq: fetched, Evict: until,
		Issued: delivered, Issue: until, Squashed: !delivered,
	})
}

func (a *sinkAdapter) BatchStoreBuffer(ref BatchRef, seq, enq, evict uint64) {
	a.s.OnStoreBuffer(Residency{
		Inst: ref.Inst(a.src, seq), Enq: enq, Evict: evict,
		Issued: true, Issue: evict,
	})
}

func (a *sinkAdapter) BatchROB(ref BatchRef, seq, enq, evict uint64, read bool) {
	if a.os == nil {
		return
	}
	r := Residency{Inst: ref.Inst(a.src, seq), Enq: enq, Evict: evict, Squashed: !read}
	if read {
		r.Issued = true
		r.Issue = evict
	}
	a.os.OnROB(r)
}

func (a *sinkAdapter) BatchLSQ(ref BatchRef, seq, enq, evict uint64, read bool) {
	if a.os == nil {
		return
	}
	r := Residency{Inst: ref.Inst(a.src, seq), Enq: enq, Evict: evict, Squashed: !read}
	if read {
		r.Issued = true
		r.Issue = evict
	}
	a.os.OnLSQ(r)
}

// Compact queue entries: ~3× smaller than their reference counterparts, which
// carry a full isa.Inst each. Content is read back through the BatchSource.
type biqEntry struct {
	enq     uint64
	issue   uint64
	evictAt uint64
	seq     uint64
	ticket  uint64    // dispatch ticket of the ROB twin; out of order only
	in      *isa.Inst // correct-path content; nil for wrong-path entries
	ref     BatchRef
	issued  bool
}

type bfeEntry struct {
	fetched uint64
	readyAt uint64
	seq     uint64
	in      *isa.Inst // correct-path content; nil for wrong-path entries
	ref     BatchRef
}

type bsbEntry struct {
	addr    uint64
	enq     uint64
	drainAt uint64
	seq     uint64
	ref     BatchRef
}

// bodySlicer is the optional bulk accessor of a BatchSource:
// workload.Shared and PrivateSource implement it, letting lanes index the
// memoised body slice directly instead of calling Body per lookup.
type bodySlicer interface {
	BodyPrefix(m int) []isa.Inst
}

// bodyAhead is how far past a missing index a shared-stream lane's
// snapshot extends: large enough to amortise the interface call, small
// enough that the tail over-generation after the last commit stays
// negligible. A private-stream lane extends by exactly one body, since
// generating ahead of its fetch order would change the stream.
const bodyAhead = 512

// inst returns body instruction n, through the snapshot on the hot path.
func (ln *batchLane) inst(n int) *isa.Inst {
	if n < len(ln.body) {
		return &ln.body[n]
	}
	return ln.instSlow(n)
}

func (ln *batchLane) instSlow(n int) *isa.Inst {
	if ln.slicer == nil {
		return ln.src.Body(n)
	}
	ahead := bodyAhead
	if ln.private {
		ahead = 1
	}
	ln.body = ln.slicer.BodyPrefix(n + ahead)
	return &ln.body[n]
}

// streamRef is a queued refetch victim (or the parked pending fetch).
type streamRef struct {
	seq uint64
	ref BatchRef
}

// ring is a fixed-capacity FIFO over a preallocated buffer. The reference
// interpreter compacts its queues by copying the tail down on every head
// removal; lanes instead advance a head index, so steady-state dequeues
// are O(1) and the backing slab never moves.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) at(i int) *T {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return &r.buf[j]
}

func (r *ring[T]) push(v T) {
	j := r.head + r.n
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	r.buf[j] = v
	r.n++
}

func (r *ring[T]) pop(k int) {
	r.head += k
	if r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
	r.n -= k
}

// batchLane is one configuration variant's complete pipeline state. It is
// the reference Pipeline translated to compact entries: every phase below
// mirrors its pipeline.go counterpart and calls the same rules, so a
// lane's event stream and statistics are byte-identical to a reference
// run of the same config.
type batchLane struct {
	cfg   Config
	src   BatchSource
	mem   *cache.Hierarchy
	sink  BatchSink
	feCap int
	// private marks a lane fetching from its own PrivateSource, which must
	// see every fetch in order; shared-stream lanes read ahead freely.
	private bool

	// body is a snapshot of the source's materialised body prefix, so hot
	// lookups index a slice instead of calling through the interface; it is
	// refreshed from slicer (when the source supports it) as the lane's
	// cursors outrun it. Entries are immutable once generated, so an old
	// snapshot never goes stale, only short.
	body   []isa.Inst
	slicer bodySlicer

	cycle    uint64
	regReady [isa.NumRegs]uint64

	iq       ring[biqEntry]
	fe       ring[bfeEntry]
	sb       ring[bsbEntry]
	issuePtr int

	refetch     []streamRef
	refetchHead int

	pendingRef  streamRef
	havePending bool

	wrongMode   bool
	wrongSrcSeq uint64
	resolveAt   uint64
	missQueue

	nextBody   int // correct-path cursor: next body index to fetch fresh
	wrongDrawn int // wrong-path draws so far

	// Out-of-order family state (see batchooo.go); empty when !ooo.
	ooo     bool
	tickets uint64 // ROB dispatches so far; the latest entry's ticket
	rob     ring[brobEntry]
	lsq     ring[blsqEntry]
	tage    tageState
	oooSink BatchOOOSink

	stats           Stats
	lastCommits     uint64
	lastCommitCycle uint64
}

// batchChunk is the lockstep pass length in commits: every live lane
// advances to the chunk target before any lane starts the next chunk, so
// the whole batch walks one shared body window that stays cache-resident
// across lanes.
const batchChunk = 4096

// BatchArena owns the batched engine's reusable allocations: the lane
// structs and the shared queue slabs. A zero BatchArena is ready to use;
// passing the same arena to successive runs reuses its storage, so a sweep
// worker's steady state allocates no lane state at all. An arena serves
// one run at a time (not concurrency-safe), and reuse is invisible in the
// results: every lane field is rebuilt from scratch each run — the
// arena-reuse seraudit check pins fresh ≡ reused byte-identity.
type BatchArena struct {
	lanes    []*batchLane
	iqSlab   []biqEntry
	feSlab   []bfeEntry
	sbSlab   []bsbEntry
	robSlab  []brobEntry
	lsqSlab  []blsqEntry
	tageSlab []uint64
}

// slab returns buf resized to n entries, reusing its backing array when
// the capacity suffices; reused entries are cleared so an old run's
// content pointers don't pin evicted stream memos.
func slab[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// RunBatchStreamArena drives K configuration variants through one decode
// of the shared instruction stream, delivering each lane's compact events
// to the corresponding sink (nil to discard; lift a plain Sink with
// LiftSink). mems supplies each lane's private data-cache hierarchy —
// lanes interleave loads and store drains differently, so the hierarchy
// cannot be shared. Lane state comes from a (nil runs with one-shot
// allocations). Returns one Stats per lane, byte-identical to K
// independent runs of the reference interpreter. A PrivateSource serves
// exactly one lane.
func RunBatchStreamArena(ctx context.Context, commits uint64, src BatchSource, cfgs []Config, mems []*cache.Hierarchy, sinks []BatchSink, a *BatchArena) ([]Stats, error) {
	if src == nil {
		return nil, fmt.Errorf("pipeline: nil batch source")
	}
	if len(cfgs) == 0 || len(mems) != len(cfgs) || len(sinks) != len(cfgs) {
		return nil, fmt.Errorf("pipeline: batch needs matching cfgs/mems/sinks, got %d/%d/%d",
			len(cfgs), len(mems), len(sinks))
	}
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: batch lane %d: %w", i, err)
		}
		if mems[i] == nil {
			return nil, fmt.Errorf("pipeline: batch lane %d: nil memory", i)
		}
	}
	if _, ok := src.(*PrivateSource); ok && len(cfgs) > 1 {
		return nil, fmt.Errorf("pipeline: a private source serves one lane, got %d", len(cfgs))
	}
	lanes := newLanes(src, cfgs, mems, sinks, a)

	for target := uint64(0); target < commits; {
		target += batchChunk
		if target > commits {
			target = commits
		}
		for _, ln := range lanes {
			if err := ln.run(ctx, target); err != nil {
				return nil, err
			}
		}
	}

	out := make([]Stats, len(lanes))
	for i, ln := range lanes {
		ln.flush()
		ln.stats.Cycles = ln.cycle
		out[i] = ln.stats
	}
	// Shed per-run references so a pooled arena holds only its own slabs:
	// sources, hierarchies and sinks belong to the caller, and keeping them
	// reachable would pin a whole workload's memos past its eviction.
	for _, ln := range lanes {
		ln.src, ln.slicer, ln.mem, ln.sink, ln.body = nil, nil, nil, nil, nil
		ln.oooSink = nil
	}
	return out, nil
}

// newLanes builds every lane over shared backing slabs — one allocation
// per queue kind for the whole batch instead of three per lane — drawing
// the lane structs, slabs and per-lane queue buffers from the arena when
// one is supplied. Reused lanes are rebuilt field by field (a whole-struct
// overwrite), so a recycled lane starts from exactly the state a fresh
// allocation would.
func newLanes(src BatchSource, cfgs []Config, mems []*cache.Hierarchy, sinks []BatchSink, a *BatchArena) []*batchLane {
	if a == nil {
		a = &BatchArena{}
	}
	var iqTotal, feTotal, sbTotal int
	var robTotal, lsqTotal, tageTotal int
	for i := range cfgs {
		iqTotal += cfgs[i].IQSize
		feTotal += cfgs[i].FrontEndCap()
		sbTotal += cfgs[i].StoreBufferSize
		if cfgs[i].OutOfOrder {
			n := cfgs[i].Normalized()
			robTotal += n.ROBSize
			lsqTotal += n.LSQSize
			tageTotal += n.TAGETables << n.TAGETableBits
		}
	}
	a.iqSlab = slab(a.iqSlab, iqTotal)
	a.feSlab = slab(a.feSlab, feTotal)
	a.sbSlab = slab(a.sbSlab, sbTotal)
	a.robSlab = slab(a.robSlab, robTotal)
	a.lsqSlab = slab(a.lsqSlab, lsqTotal)
	a.tageSlab = slab(a.tageSlab, tageTotal)

	for len(a.lanes) < len(cfgs) {
		a.lanes = append(a.lanes, &batchLane{})
	}
	slicer, _ := src.(bodySlicer)
	_, private := src.(*PrivateSource)
	lanes := a.lanes[:len(cfgs)]
	iqOff, feOff, sbOff := 0, 0, 0
	robOff, lsqOff, tageOff := 0, 0, 0
	for i := range cfgs {
		cfg := cfgs[i].Normalized()
		feCap := cfg.FrontEndCap()
		ln := lanes[i]
		refetch := slab(ln.refetch, cfg.IQSize+feCap)[:0]
		squashQ := ln.squashQ[:0]
		if cap(squashQ) < 8 {
			squashQ = make([]squashEvent, 0, 8)
		}
		throttleQ := ln.throttleQ[:0]
		if cap(throttleQ) < 8 {
			throttleQ = make([]throttleEvent, 0, 8)
		}
		*ln = batchLane{
			cfg:       cfg,
			src:       src,
			slicer:    slicer,
			mem:       mems[i],
			sink:      sinks[i],
			feCap:     feCap,
			private:   private,
			refetch:   refetch,
			missQueue: missQueue{squashQ: squashQ, throttleQ: throttleQ},
		}
		ln.iq.buf = a.iqSlab[iqOff : iqOff+cfg.IQSize]
		ln.fe.buf = a.feSlab[feOff : feOff+feCap]
		ln.sb.buf = a.sbSlab[sbOff : sbOff+cfg.StoreBufferSize]
		iqOff += cfg.IQSize
		feOff += feCap
		sbOff += cfg.StoreBufferSize
		if cfg.OutOfOrder {
			ln.ooo = true
			ln.rob.buf = a.robSlab[robOff : robOff+cfg.ROBSize]
			ln.lsq.buf = a.lsqSlab[lsqOff : lsqOff+cfg.LSQSize]
			robOff += cfg.ROBSize
			lsqOff += cfg.LSQSize
			tn := cfg.TAGETables << cfg.TAGETableBits
			ln.tage.init(&cfg, a.tageSlab[tageOff:tageOff+tn])
			tageOff += tn
			if s, ok := sinks[i].(BatchOOOSink); ok {
				ln.oooSink = s
			}
		}
	}
	return lanes
}

// run advances the lane until its commit count reaches target, with the
// reference interpreter's loop structure plus one phase: step, watchdog,
// fast-forward to the lane's own next event horizon. Stopping at an intermediate chunk target skips
// at most one fast-forward, and the first step of the next chunk is then a
// provable no-op cycle, so chunking never changes results.
func (ln *batchLane) run(ctx context.Context, target uint64) error {
	for iter := uint64(0); ln.stats.Commits < target; iter++ {
		if iter&1023 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		ln.step()
		if ln.stats.Commits != ln.lastCommits {
			ln.lastCommits = ln.stats.Commits
			ln.lastCommitCycle = ln.cycle
		} else if ln.cycle-ln.lastCommitCycle > watchdogCycles {
			panic(fmt.Sprintf(
				"pipeline: batch lane: no commit for %d cycles at cycle %d (iq=%d fe=%d refetch=%d wrong=%v stall=%d)",
				watchdogCycles, ln.cycle, ln.iq.n, ln.fe.n, len(ln.refetch)-ln.refetchHead, ln.wrongMode, ln.stallUntil))
		}
		if ln.stats.Commits < target {
			ln.fastForward()
		}
	}
	return nil
}

// flush closes residencies for entries still in flight, clipped at the
// final cycle, exactly as the reference interpreter's Run does.
func (ln *batchLane) flush() {
	if ln.sink == nil {
		return
	}
	for i := 0; i < ln.iq.n; i++ {
		ln.recordResidency(ln.iq.at(i), ln.cycle, false)
	}
	for i := 0; i < ln.fe.n; i++ {
		ln.recordFrontEnd(ln.fe.at(i), ln.cycle, false)
	}
	for i := 0; i < ln.sb.n; i++ {
		e := ln.sb.at(i)
		ln.sink.BatchStoreBuffer(e.ref, e.seq, e.enq, ln.cycle)
	}
	if ln.ooo {
		ln.oooFlushEnd(ln.cycle)
	}
}

func (ln *batchLane) step() {
	now := ln.cycle
	if ln.ooo {
		ln.drainLSQ(now)
	} else {
		ln.drainStores(now)
	}
	ln.resolveBranch(now)
	ln.missQueue.applySquashes(now, ln.doSquash)
	ln.stats.ThrottleEvents += ln.applyThrottles(now)
	if ln.ooo {
		ln.retire(now)
	}
	ln.evict(now)
	ln.issue(now)
	ln.deliver(now)
	ln.fetch(now)
	ln.cycle++
}

func (ln *batchLane) fastForward() {
	now := ln.cycle
	horizon := ln.nextEventCycle(now)
	if horizon <= now {
		return
	}
	if ln.stallUntil > now {
		stallEnd := ln.stallUntil
		if horizon < stallEnd {
			stallEnd = horizon
		}
		ln.stats.FetchStallCycles += stallEnd - now
	}
	ln.cycle = horizon
}

func (ln *batchLane) nextEventCycle(now uint64) uint64 {
	if now >= ln.stallUntil && ln.fe.n < ln.feCap {
		return now
	}
	horizon := neverCycle
	if now < ln.stallUntil {
		horizon = ln.stallUntil
	}
	if ln.sb.n > 0 {
		if at := ln.sb.at(0).drainAt; at < horizon {
			horizon = at
		}
	}
	if ln.resolveAt != 0 && ln.resolveAt < horizon {
		horizon = ln.resolveAt
	}
	for i := range ln.squashQ {
		if at := ln.squashQ[i].at; at < horizon {
			horizon = at
		}
	}
	for i := range ln.throttleQ {
		if at := ln.throttleQ[i].at; at < horizon {
			horizon = at
		}
	}
	if ln.iq.n > 0 {
		if e := ln.iq.at(0); e.issued && e.evictAt < horizon {
			horizon = e.evictAt
		}
	}
	if ln.fe.n > 0 && ln.iq.n < ln.cfg.IQSize {
		if at := ln.fe.at(0).readyAt; at < horizon {
			horizon = at
		}
	}
	if ln.ooo {
		horizon = ln.oooEventCycle(horizon)
	}
	for i := ln.issuePtr; i < ln.iq.n; i++ {
		if horizon <= now {
			return now
		}
		e := ln.iq.at(i)
		if e.issued {
			continue
		}
		if e.in == nil {
			return now // wrong path: issues this cycle
		}
		if rc := readyAt(&ln.regReady, e.in, ln.sb.n >= ln.cfg.StoreBufferSize); rc < horizon {
			horizon = rc
		}
		if !ln.cfg.OutOfOrder {
			break
		}
	}
	if horizon < now || horizon == neverCycle {
		return now
	}
	return horizon
}

func (ln *batchLane) recordResidency(e *biqEntry, evict uint64, squashed bool) {
	if ln.sink == nil {
		return
	}
	ln.sink.BatchResidency(e.ref, e.seq, e.enq, e.issue, evict, e.issued, squashed)
}

func (ln *batchLane) recordFrontEnd(fe *bfeEntry, until uint64, delivered bool) {
	if ln.sink == nil {
		return
	}
	ln.sink.BatchFrontEnd(fe.ref, fe.seq, fe.fetched, until, delivered)
}

func (ln *batchLane) resolveBranch(now uint64) {
	if ln.resolveAt == 0 || now < ln.resolveAt {
		return
	}
	ln.resolveAt = 0
	ln.wrongMode = false
	kept := 0
	for i := 0; i < ln.iq.n; i++ {
		e := ln.iq.at(i)
		if e.ref.Wrong() {
			ln.stats.WrongFlushes++
			ln.recordResidency(e, now, !e.issued)
			continue
		}
		if kept != i {
			*ln.iq.at(kept) = *e
		}
		kept++
	}
	ln.iq.n = kept
	ln.issuePtr = 0
	kept = 0
	for i := 0; i < ln.fe.n; i++ {
		fe := ln.fe.at(i)
		if fe.ref.Wrong() {
			ln.stats.WrongFlushes++
			ln.recordFrontEnd(fe, now, false)
			continue
		}
		if kept != i {
			*ln.fe.at(kept) = *fe
		}
		kept++
	}
	ln.fe.n = kept
	if ln.ooo {
		ln.oooFlushWrong(now)
	}
}

func (ln *batchLane) doSquash(now uint64, ev squashEvent) {
	ln.stats.Squashes++
	kept := 0
	for i := 0; i < ln.iq.n; i++ {
		e := ln.iq.at(i)
		if e.issued || e.seq <= ev.loadSeq {
			if kept != i {
				*ln.iq.at(kept) = *e
			}
			kept++
			continue
		}
		ln.stats.SquashedEntries++
		ln.recordResidency(e, now, true)
		ln.squashVictim(e.ref, e.seq)
	}
	ln.iq.n = kept
	ln.issuePtr = 0

	kept = 0
	for i := 0; i < ln.fe.n; i++ {
		fe := ln.fe.at(i)
		if fe.seq <= ev.loadSeq {
			if kept != i {
				*ln.fe.at(kept) = *fe
			}
			kept++
			continue
		}
		ln.stats.SquashedEntries++
		ln.recordFrontEnd(fe, now, false)
		ln.squashVictim(fe.ref, fe.seq)
	}
	ln.fe.n = kept
	if ln.ooo {
		ln.oooSquash(now, ev)
	}

	if ln.refetchHead > 0 {
		m := copy(ln.refetch, ln.refetch[ln.refetchHead:])
		ln.refetch = ln.refetch[:m]
		ln.refetchHead = 0
	}
	sortRefetch(ln.refetch, func(r *streamRef) uint64 { return r.seq })
	ln.squashRestart(now, ev.missReturn, ln.cfg.RefetchOverlap)
}

func (ln *batchLane) squashVictim(ref BatchRef, seq uint64) {
	if ref.Wrong() {
		return
	}
	ln.refetch = append(ln.refetch, streamRef{seq: seq, ref: ref})
	ln.stats.Refetches++
	if ln.wrongMode && seq == ln.wrongSrcSeq {
		ln.wrongMode = false
	}
}

func (ln *batchLane) evict(now uint64) {
	n := 0
	for n < ln.iq.n {
		e := ln.iq.at(n)
		if !e.issued || now < e.evictAt {
			break
		}
		ln.recordResidency(e, now, false)
		n++
	}
	if n > 0 {
		ln.iq.pop(n)
		ln.issuePtr -= n
		if ln.issuePtr < 0 {
			ln.issuePtr = 0
		}
	}
}

func (ln *batchLane) issue(now uint64) {
	issued := 0
	for i := ln.issuePtr; i < ln.iq.n && issued < ln.cfg.IssueWidth; i++ {
		e := ln.iq.at(i)
		if e.issued {
			continue
		}
		if e.in != nil && readyAt(&ln.regReady, e.in, ln.sb.n >= ln.cfg.StoreBufferSize) > now {
			if ln.cfg.OutOfOrder {
				continue
			}
			return
		}
		ln.execute(e, now)
		issued++
		if i == ln.issuePtr {
			ln.issuePtr = i + 1
		}
	}
}

// execute mirrors Pipeline.execute; e.in is nil on the wrong path.
func (ln *batchLane) execute(e *biqEntry, now uint64) {
	e.issued = true
	e.issue = now
	e.evictAt = now + uint64(ln.cfg.ReplayWindow)
	in := e.in
	if in != nil {
		ln.stats.Commits++
		if ln.sink != nil {
			ln.sink.BatchCommit(e.ref, e.seq, e.enq, now)
		}
	}

	done := now + 1 // earliest ROB retire; refined per class below
	if in != nil && !in.PredFalse {
		switch in.Class {
		case isa.ClassALU:
			done = now + uint64(ln.cfg.ALULatency)
			writeDest(&ln.regReady, in, done)
		case isa.ClassFPU:
			done = now + uint64(ln.cfg.FPLatency)
			writeDest(&ln.regReady, in, done)
		case isa.ClassLoad:
			if ln.forwards(in.Addr) {
				ln.stats.ForwardedLoads++
				writeDest(&ln.regReady, in, now+1)
				break
			}
			res := ln.mem.Access(in.Addr, false)
			ln.stats.LoadsByLevel[res.Level]++
			done = now + uint64(res.Latency)
			writeDest(&ln.regReady, in, done)
			ln.trigger(&ln.cfg, ln.mem, e.seq, res, now)
		case isa.ClassStore:
			if ln.ooo {
				ln.lsqClaim(e.seq)
				break
			}
			ln.sb.push(bsbEntry{
				addr:    in.Addr,
				enq:     now,
				drainAt: now + uint64(ln.cfg.StoreDrainLatency),
				seq:     e.seq,
				ref:     e.ref,
			})
		case isa.ClassIO:
			ln.mem.Access(in.Addr, true)
		case isa.ClassPrefetch:
			ln.mem.Prefetch(in.Addr)
		case isa.ClassBranch, isa.ClassCall, isa.ClassReturn:
			if in.Mispred && ln.wrongMode && ln.wrongSrcSeq == e.seq {
				ln.resolveAt = now + uint64(ln.cfg.BranchResolveLatency)
				done = ln.resolveAt
			}
		case isa.ClassNop, isa.ClassHint:
		}
	}
	if ln.ooo {
		ln.robComplete(e.ticket, done)
	}
}

// forwards reports whether a live store covers addr: a store-buffer entry
// in-order, an executed undrained LSQ store out of order. The reference
// interpreter keeps a refcounted map; both queues are small, so a linear
// scan of the ring is cheaper than map traffic.
func (ln *batchLane) forwards(addr uint64) bool {
	if ln.ooo {
		for i := 0; i < ln.lsq.n; i++ {
			if e := ln.lsq.at(i); e.live && e.addr == addr {
				return true
			}
		}
		return false
	}
	for i := 0; i < ln.sb.n; i++ {
		if ln.sb.at(i).addr == addr {
			return true
		}
	}
	return false
}

func (ln *batchLane) drainStores(now uint64) {
	if ln.sb.n == 0 {
		return
	}
	e := ln.sb.at(0)
	if now < e.drainAt {
		return
	}
	ln.mem.Access(e.addr, true)
	if ln.sink != nil {
		ln.sink.BatchStoreBuffer(e.ref, e.seq, e.enq, now)
	}
	ln.sb.pop(1)
}

func (ln *batchLane) deliver(now uint64) {
	n := 0
	for n < ln.fe.n {
		fe := ln.fe.at(n)
		if fe.readyAt > now || ln.iq.n >= ln.cfg.IQSize {
			break
		}
		var ticket uint64
		if ln.ooo {
			in := ln.feContent(fe)
			if !admits(&ln.cfg, ln.rob.n, ln.lsq.n, in.Class) {
				break
			}
			ticket = ln.oooDispatch(&in, fe, now)
		}
		ln.iq.push(biqEntry{ref: fe.ref, seq: fe.seq, ticket: ticket, in: fe.in, enq: now})
		ln.recordFrontEnd(fe, now, true)
		n++
	}
	if n > 0 {
		ln.fe.pop(n)
	}
}

func (ln *batchLane) fetch(now uint64) {
	if now < ln.stallUntil {
		ln.stats.FetchStallCycles++
		return
	}
	if ln.fe.n >= ln.feCap {
		return
	}
	readyAt := now + uint64(ln.cfg.FrontEndDepth)
	for i := 0; i < ln.cfg.FetchWidth && ln.fe.n < ln.feCap; i++ {
		var ref BatchRef
		var seq uint64
		switch {
		case ln.refetchHead < len(ln.refetch) && !ln.wrongMode:
			v := ln.refetch[ln.refetchHead]
			ln.refetchHead++
			if ln.refetchHead == len(ln.refetch) {
				ln.refetch = ln.refetch[:0]
				ln.refetchHead = 0
			}
			ref, seq = v.ref, v.seq
		case ln.havePending:
			ref, seq = ln.pendingRef.ref, ln.pendingRef.seq
			ln.havePending = false
		case ln.wrongMode:
			ref = wrongAt(ln.nextBody)
			seq = uint64(ln.nextBody + ln.wrongDrawn)
			if ln.private {
				ln.src.Wrong(ln.wrongDrawn) // draw in fetch order
			}
			ln.wrongDrawn++
		default:
			in := ln.inst(ln.nextBody)
			if in.FetchBubble > 0 {
				// Charge the delivery gap and park: the bubble lives in
				// the memo, so it is honoured on the first fetch and
				// ignored on refetch, exactly as the reference
				// interpreter's clear-on-park behaves.
				until := now + uint64(in.FetchBubble)
				if until > ln.stallUntil {
					ln.stallUntil = until
				}
				ln.pendingRef = streamRef{
					seq: uint64(ln.nextBody + ln.wrongDrawn),
					ref: bodyRef(ln.nextBody),
				}
				ln.havePending = true
				ln.nextBody++
				return
			}
			ref = bodyRef(ln.nextBody)
			seq = uint64(ln.nextBody + ln.wrongDrawn)
			ln.nextBody++
		}
		if seq > ln.stats.MaxSeq {
			ln.stats.MaxSeq = seq
		}
		// The content pointer rides in the entry from fetch onward: memo
		// arrays are append-only and their entries immutable, so a pointer
		// taken here stays valid even after the snapshot grows.
		var in *isa.Inst
		if !ref.Wrong() {
			in = ln.inst(ref.Body())
			if in.Class.IsControl() && in.Mispred && !ln.wrongMode {
				ln.wrongMode = true
				ln.wrongSrcSeq = seq
			}
		}
		ln.fe.push(bfeEntry{ref: ref, seq: seq, in: in, fetched: now, readyAt: readyAt})
	}
}
