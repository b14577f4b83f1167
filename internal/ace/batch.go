package ace

import (
	"fmt"
	"math"
	"slices"

	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// This file is the streaming half of the ACE analysis, folding a pipeline
// lane's events into the AVF integrals without materialising a trace. A
// BatchGroup owns the per-stream work every lane shares — chiefly the
// deadness classification of the commit log, which is Seq-value-independent
// and so identical across lanes that committed the same number of body
// instructions. An out-of-order lane that stops with commit holes (younger
// bodies committed, older ones still in flight) analyses in place instead:
// the same deadness kernel runs over the shared body prefix, masked by the
// lane's commit bitmap, in the group's one kernel scratch. A
// BatchCollector is one lane's pipeline.BatchSink: it keys every deferred
// charge by body index, the position deadness classifies by, which both
// skips instruction reconstruction on the hot path and turns Finish's
// lookups into direct indexing; reorder-buffer reads, which only committed
// bodies make, sum straight into per-body storage. The per-body records
// hold their cycle counts in 16 bits and the pending charges in 32, which
// every lane of the paper's runs fits; a count that does not fit is kept
// exact in a 64-bit side entry (wideRec, charges.wide), never wrapped.
// All charges are commutative uint64 sums through the same
// Report.addRead/addNeverRead/SBReport.add helpers as the trace analyses
// (Analyze and friends), so the reports are exactly equal to analysing a
// recorded trace of the run — the stream-batch and batched-independent
// seraudit checks pin that.

// CollectorConfig parameterises a BatchCollector: the geometry of the
// structures under analysis plus which optional analyses to run. Geometry
// must match the pipeline configuration that drives the lane —
// StructureConfig derives it.
type CollectorConfig struct {
	IQSize         int
	FrontEndCap    int
	StoreBufferCap int
	// ROBSize and LSQSize enable the out-of-order structure analyses when
	// nonzero (they stay zero for the in-order family, whose runs emit no
	// ROB/LSQ events).
	ROBSize int
	LSQSize int
	// Commits pre-sizes the per-commit records (0 if unknown).
	Commits uint64

	// FrontEnd, StoreBuffer and RegFile enable the corresponding extra
	// analyses; each costs some per-event bookkeeping, so they are opt-in.
	FrontEnd    bool
	StoreBuffer bool
	RegFile     bool
}

// StructureConfig derives a collector's geometry from the pipeline
// configuration that will drive it. The optional analyses start disabled.
func StructureConfig(pcfg pipeline.Config, commits uint64) CollectorConfig {
	cfg := CollectorConfig{
		IQSize:         pcfg.IQSize,
		FrontEndCap:    pcfg.FrontEndCap(),
		StoreBufferCap: pcfg.StoreBufferSize,
		Commits:        commits,
	}
	if pcfg.OutOfOrder {
		n := pcfg.Normalized()
		cfg.ROBSize = n.ROBSize
		cfg.LSQSize = n.LSQSize
	}
	return cfg
}

// Reports bundles the analyses a collector produced from one lane. The
// optional reports are nil unless enabled in the CollectorConfig.
type Reports struct {
	IQ          *Report
	FrontEnd    *Report
	StoreBuffer *SBReport
	RegFile     *RegFileReport
	// ROB and LSQ are produced only for out-of-order runs (nonzero
	// ROBSize/LSQSize in the CollectorConfig).
	ROB *Report
	LSQ *LSQReport
}

// bodyPrefixer is the optional fast path for obtaining the shared commit
// log as a slice; workload.Shared implements it.
type bodyPrefixer interface {
	BodyPrefix(m int) []isa.Inst
}

// BatchGroup shares one decoded stream's analyses across the lanes of a
// batch. Not safe for concurrent use: one group serves one batch, whose
// collectors Finish one after another.
type BatchGroup struct {
	src  pipeline.BatchSource
	dead map[int]*Deadness
	// scratch is the deadness kernel's working storage, shared by the
	// dense memo and every holed lane's in-place analysis. Each analysis
	// is done with it before the next starts: a memoised Deadness owns its
	// slices, and a holed Finish reads the scratch's categories only until
	// it returns.
	scratch deadScratch
}

// NewBatchGroup wraps the batch's shared stream.
func NewBatchGroup(src pipeline.BatchSource) *BatchGroup {
	return &BatchGroup{src: src, dead: make(map[int]*Deadness)}
}

// Rebind points the group at src, which must replay the same workload's
// stream as the one the group was built over: another decode of it, or the
// same one checked out again. The deadness memos depend only on the
// stream's content, so they carry over.
func (g *BatchGroup) Rebind(src pipeline.BatchSource) { g.src = src }

// Reset re-arms the group for any stream src: it forgets the deadness
// memos, which belong to the old stream's content, and keeps the kernel
// scratch, so the next analysis reuses its arrays. Analyses the group
// returned before stay valid: a memoised Deadness owns its slices.
func (g *BatchGroup) Reset(src pipeline.BatchSource) {
	g.src = src
	clear(g.dead)
}

// commitLog returns the first m body instructions as a slice — the shared
// stand-in for any lane's commit log (deadness and the per-commit fields
// are Seq-value-independent). The workload.Shared fast path aliases the
// generator's memo; the fallback copies through the interface.
func (g *BatchGroup) commitLog(m int) []isa.Inst {
	if p, ok := g.src.(bodyPrefixer); ok {
		return p.BodyPrefix(m)
	}
	log := make([]isa.Inst, m)
	for i := range log {
		log[i] = *g.src.Body(i)
	}
	return log
}

// deadness returns the memoised classification of the first m body
// instructions. Lanes overshoot their commit target by at most
// IssueWidth-1, so a batch sees only a handful of distinct m values and
// the analysis runs once per value instead of once per lane.
func (g *BatchGroup) deadness(m int) *Deadness {
	if d, ok := g.dead[m]; ok {
		return d
	}
	d := g.scratch.analyze(g.commitLog(m), nil)
	g.dead[m] = d
	return d
}

// viewFor returns one lane's Deadness: a copy of the shared analysis's
// header whose categories, counts and FDD distance populations alias the
// memo (they are read-only downstream). The copy keeps a lane's Compact
// from clearing the memo the group's other lanes read.
func (g *BatchGroup) viewFor(m int) *Deadness {
	d := *g.deadness(m)
	return &d
}

// charge32 is one deferred charge of cycles against a body index, in 8
// bytes; its category needs the complete commit log, so Finish settles it.
type charge32 struct{ body, cycles uint32 }

// charge is a deferred charge too wide for a charge32.
type charge struct {
	body   int
	cycles uint64
}

// charges is a list of deferred charges, exact at any width: a charge
// whose body index or cycle count exceeds 32 bits is kept whole in wide.
// Finish sums the charges, so their order does not matter.
type charges struct {
	narrow []charge32
	wide   []charge
}

func (l *charges) add(body int, cycles uint64) {
	if uint64(body) <= math.MaxUint32 && cycles <= math.MaxUint32 {
		l.narrow = append(l.narrow, charge32{uint32(body), uint32(cycles)})
		return
	}
	l.wide = append(l.wide, charge{body, cycles})
}

func (l *charges) reset() { l.narrow, l.wide = l.narrow[:0], l.wide[:0] }

// each calls f on every charge.
func (l *charges) each(f func(body int, cycles uint64)) {
	for _, p := range l.narrow {
		f(int(p.body), uint64(p.cycles))
	}
	for _, p := range l.wide {
		f(p.body, p.cycles)
	}
}

// commitRec is one body position's deferred IQ charge: the pre-issue wait
// and the post-issue linger, packed together so the per-commit writes
// touch one array.
type commitRec struct {
	wait, linger uint16
}

// wideRec holds what one body's IQ wait, IQ linger and ROB occupancy
// carried past their 16-bit records: a body's total is its record plus
// its wide entry.
type wideRec struct{ wait, linger, rob uint64 }

// add16 adds v to the 16-bit record *r. When the sum does not fit it
// zeroes *r and returns the sum (mod 2⁶⁴, as a 64-bit record would hold
// it) for the caller to carry into the body's wideRec; otherwise it
// returns 0.
func add16(r *uint16, v uint64) (carry uint64) {
	if v <= math.MaxUint16-uint64(*r) {
		*r += uint16(v)
		return 0
	}
	carry = uint64(*r) + v
	*r = 0
	return carry
}

// readBuckets sums read charges per (category, dest, control) bucket.
// addRead is linear in wait and linger (every charge is wait*k or linger*k
// for a constant k determined by the category and flags), so folding each
// bucket through addRead once is exactly charging every read on its own.
type readBuckets [NumCategories * 4]struct{ wait, linger uint64 }

func (b *readBuckets) add(cat Category, in *isa.Inst, wait, linger uint64) {
	key := int(cat) * 4
	if in.Dest != isa.RegNone {
		key += 2
	}
	if in.Class.IsControl() {
		key++
	}
	b[key].wait += wait
	b[key].linger += linger
}

func (b *readBuckets) fold(r *Report) {
	for key, a := range b {
		if a.wait != 0 || a.linger != 0 {
			r.addRead(a.wait, a.linger, Category(key/4), key&2 != 0, key&1 != 0)
		}
	}
}

// BatchCollector folds one lane's compact events into ACE reports. Charges
// with a static category are integrated on arrival; correct-path reads,
// whose category needs the complete commit log, are settled in Finish.
type BatchCollector struct {
	cfg   CollectorConfig
	group *BatchGroup

	recs    []commitRec      // indexed by body position; zero value = no commit yet
	bits    []uint64         // committed-body bitmap, parallel to recs
	issues  []uint64         // issue cycle per body position; RegFile only
	robOcc  []uint16         // ROB read occupancy per body position; OoO only
	wide    map[int]*wideRec // by body position; only bodies that outgrew 16 bits
	n       int              // one past the highest committed body index
	commits int              // total commits; == n iff [0, n) is hole-free

	iq  Report
	fe  Report
	sb  SBReport
	rob Report
	lsq LSQReport

	// iqReads buckets the IQ read charges: wrong-path residencies during
	// the run, committed ones in Finish.
	iqReads readBuckets

	fePending  charges
	sbPending  charges
	lsqPending charges
}

// widen returns body's wide entry, creating it.
func (c *BatchCollector) widen(body int) *wideRec {
	w := c.wide[body]
	if w == nil {
		if c.wide == nil {
			c.wide = make(map[int]*wideRec)
		}
		w = &wideRec{}
		c.wide[body] = w
	}
	return w
}

// committed reports whether body index i has committed.
func (c *BatchCollector) committed(i int) bool {
	return i < c.n && committedAt(c.bits, i)
}

// NewBatchCollector builds one lane's collector over the batch's shared
// group. Pass it to pipeline.RunBatchStreamArena, then call Finish with the
// lane's cycle count.
func NewBatchCollector(cfg CollectorConfig, group *BatchGroup) (*BatchCollector, error) {
	c := &BatchCollector{}
	if err := c.Reset(cfg, group); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset re-arms a finished collector for a new lane, reusing the commit
// record, bitmap and per-body ROB storage — the collector's big
// allocations — so a pooled collector's steady state allocates nothing per
// event. Safe after Finish: the returned Reports are detached copies whose
// deadness views alias only the group's memo or a fresh analysis, never
// the collector's storage, so resetting never mutates previously returned
// results.
func (c *BatchCollector) Reset(cfg CollectorConfig, group *BatchGroup) error {
	if group == nil {
		return fmt.Errorf("ace: nil batch group")
	}
	c.cfg, c.group = cfg, group
	// A lane overshoots its commit target by at most IssueWidth-1 commits
	// (one final multi-issue cycle); the slack keeps the last commits from
	// hitting the grow path.
	want := int(cfg.Commits) + 16
	nb := (want + 63) / 64
	if cap(c.recs) < want || cap(c.bits) < nb {
		c.recs = make([]commitRec, want)
		c.bits = make([]uint64, nb)
	} else {
		c.recs = c.recs[:want]
		c.bits = c.bits[:nb]
		clear(c.recs)
		clear(c.bits)
	}
	// The RegFile pass needs each commit's issue cycle; a body index is
	// always written by its commit before Finish reads it, so the reused
	// array needs no clearing.
	c.issues = c.issues[:0]
	if cfg.RegFile {
		c.issues = slices.Grow(c.issues, want)[:want]
	}
	// ROB reads accumulate, so the reused array is cleared.
	c.robOcc = c.robOcc[:0]
	if cfg.ROBSize > 0 {
		c.robOcc = slices.Grow(c.robOcc, want)[:want]
		clear(c.robOcc)
	}
	clear(c.wide)
	c.n, c.commits = 0, 0
	c.iq, c.fe, c.sb = Report{}, Report{}, SBReport{}
	c.rob, c.lsq = Report{}, LSQReport{}
	c.iqReads = readBuckets{}
	c.fePending.reset()
	c.sbPending.reset()
	c.lsqPending.reset()
	return nil
}

// BatchCommit implements pipeline.BatchSink. Out-of-order lanes commit in
// dataflow order, so charges are placed by body index; every body index
// below the final commit count commits exactly once, making the array
// dense by Finish (pre-zeroed gaps are overwritten when their commit
// arrives).
func (c *BatchCollector) BatchCommit(ref pipeline.BatchRef, seq, enq, issue uint64) {
	body := ref.Body()
	if body >= len(c.recs) {
		c.recs = append(c.recs, make([]commitRec, body+16-len(c.recs))...)
		c.bits = append(c.bits, make([]uint64, (len(c.recs)+63)/64-len(c.bits))...)
		if c.cfg.RegFile {
			c.issues = append(c.issues, make([]uint64, len(c.recs)-len(c.issues))...)
		}
		if c.cfg.ROBSize > 0 {
			c.robOcc = append(c.robOcc, make([]uint16, len(c.recs)-len(c.robOcc))...)
		}
	}
	// A body commits once, so its wait record is still zero here.
	if carry := add16(&c.recs[body].wait, issue-enq); carry != 0 {
		c.widen(body).wait = carry
	}
	c.bits[body>>6] |= 1 << (uint(body) & 63)
	if c.cfg.RegFile {
		c.issues[body] = issue
	}
	c.commits++
	if body >= c.n {
		c.n = body + 1
	}
}

// BatchResidency implements pipeline.BatchSink: one closed IQ interval.
func (c *BatchCollector) BatchResidency(ref pipeline.BatchRef, seq, enq, issue, evict uint64, issued, squashed bool) {
	if evict <= enq {
		return
	}
	occ := evict - enq
	if !issued {
		c.iq.addNeverRead(occ)
		return
	}
	wait := issue - enq
	linger := evict - issue
	if ref.Wrong() {
		in := c.group.src.Wrong(int(seq) - ref.Body())
		c.iqReads.add(CatWrongPath, &in, wait, linger)
		return
	}
	// Correct path: the commit event always precedes the eviction (evict
	// runs before issue within a cycle, so an entry issued at cycle t
	// closes its interval at t+1 or later), so the body's record exists and
	// the linger parks next to the wait for one fused addRead in Finish.
	// addRead charges linger category-independently (ExACEBC only), so the
	// fused call is bit-identical to charging wait and linger separately.
	if body := ref.Body(); body < c.n {
		if carry := add16(&c.recs[body].linger, linger); carry != 0 {
			c.widen(body).linger += carry
		}
	} else {
		c.iq.addRead(0, linger, CatACE, false, false)
	}
}

// BatchFrontEnd implements pipeline.BatchSink: one closed fetch-buffer
// interval.
func (c *BatchCollector) BatchFrontEnd(ref pipeline.BatchRef, seq, fetched, until uint64, delivered bool) {
	if !c.cfg.FrontEnd {
		return
	}
	if until <= fetched {
		return
	}
	wait := until - fetched
	if !delivered {
		c.fe.addNeverRead(wait)
		return
	}
	if ref.Wrong() {
		t := c.group.src.Wrong(int(seq) - ref.Body())
		c.fe.addRead(wait, 0, CatWrongPath, t.Dest != isa.RegNone, t.Class.IsControl())
		return
	}
	c.fePending.add(ref.Body(), wait)
}

// BatchStoreBuffer implements pipeline.BatchSink: one drained (or run-end
// clipped) store-buffer interval.
func (c *BatchCollector) BatchStoreBuffer(ref pipeline.BatchRef, seq, enq, evict uint64) {
	if !c.cfg.StoreBuffer {
		return
	}
	if evict <= enq {
		return
	}
	c.sbPending.add(ref.Body(), evict-enq)
}

// BatchROB implements pipeline.BatchOOOSink: one closed reorder-buffer
// interval. A read (retired) entry is always a committed body, and its
// commit (at execute) precedes its retire, so the body's slot exists; the
// occupancy sums into it and Finish charges the body's total once, under
// the body's category. addRead is linear in wait, so one charge of the
// sum equals charging each read on its own.
func (c *BatchCollector) BatchROB(ref pipeline.BatchRef, seq, enq, evict uint64, read bool) {
	if c.cfg.ROBSize == 0 {
		return
	}
	if evict <= enq {
		return
	}
	occ := evict - enq
	if !read {
		c.rob.addNeverRead(occ)
		return
	}
	body := ref.Body()
	if carry := add16(&c.robOcc[body], occ); carry != 0 {
		c.widen(body).rob += carry
	}
}

// BatchLSQ implements pipeline.BatchOOOSink: one closed load/store-queue
// interval.
func (c *BatchCollector) BatchLSQ(ref pipeline.BatchRef, seq, enq, evict uint64, read bool) {
	if c.cfg.LSQSize == 0 {
		return
	}
	if evict <= enq {
		return
	}
	occ := evict - enq
	if !read {
		c.lsq.addNeverRead(occ)
		return
	}
	c.lsqPending.add(ref.Body(), occ)
}

// Finish settles every deferred charge against the lane's deadness and
// returns the lane's reports. cycles is the lane's Stats.Cycles. The
// collector must not receive further events. The collectors of one group
// Finish one at a time: they share the group's kernel scratch.
func (c *BatchCollector) Finish(cycles uint64) *Reports {
	// The committed set is usually the dense body prefix [0, c.n), which
	// shares the group's memoised deadness. An out-of-order lane, though,
	// can stop mid dataflow window with younger bodies committed while
	// older ones are still in flight; the analysis must then see exactly
	// the committed bodies — a recorded trace's commit log — so the kernel
	// runs in place over the body prefix, masked by the commit bitmap, in
	// the group's scratch. Either way cats is indexed by body position, and
	// a body that never committed is a clear bit. IQ and ROB reads are
	// settled per committed body in one walk; front-end, store-buffer and
	// LSQ charges come from their pending lists.
	m := c.n
	log := c.group.commitLog(m)
	var (
		dead *Deadness
		cats []Category
	)
	// Every body commits at most once, so c.commits == m proves the
	// committed set is exactly the dense prefix [0, m).
	if c.commits == m {
		dead = c.group.viewFor(m)
		cats = dead.cats
	} else {
		dead = c.group.scratch.analyze(log, c.bits)
		cats = c.group.scratch.cat
	}
	// catOf is a pending charge's category; a body outside the committed
	// set is still in flight, so conservatively live, as a residency
	// missing from a recorded trace's commit log is. inst is the body's
	// content.
	catOf := func(body int) Category {
		if c.committed(body) {
			return cats[body]
		}
		return CatACE
	}
	inst := func(body int) *isa.Inst {
		if body < m {
			return &log[body]
		}
		return c.group.src.Body(body)
	}

	var robReads readBuckets
	for i := range log {
		if c.committed(i) {
			c.iqReads.add(cats[i], &log[i], uint64(c.recs[i].wait), uint64(c.recs[i].linger))
			if c.cfg.ROBSize > 0 {
				robReads.add(cats[i], &log[i], uint64(c.robOcc[i]), 0)
			}
		}
	}
	// What outgrew the 16-bit records joins the same buckets: the sums,
	// and so the reports, equal a 64-bit fold's.
	for i, w := range c.wide {
		if c.committed(i) {
			c.iqReads.add(cats[i], &log[i], w.wait, w.linger)
			robReads.add(cats[i], &log[i], w.rob, 0)
		}
	}
	c.iqReads.fold(&c.iq)
	// The returned Reports are value copies detached from the collector's
	// own fields (Report and SBReport are flat apart from the Dead pointer,
	// whose view is built fresh above), so a later Reset-and-reuse of this
	// collector cannot reach back into results a caller retained.
	c.iq.Cycles = cycles
	c.iq.Entries = c.cfg.IQSize
	c.iq.BitsPer = isa.EntryPayloadBits
	c.iq.Dead = dead
	c.iq.finalize()
	iq := c.iq
	out := &Reports{IQ: &iq}

	if c.cfg.FrontEnd {
		var reads readBuckets
		c.fePending.each(func(body int, wait uint64) {
			reads.add(catOf(body), inst(body), wait, 0)
		})
		reads.fold(&c.fe)
		c.fe.Cycles = cycles
		c.fe.Entries = c.cfg.FrontEndCap
		c.fe.BitsPer = isa.EntryPayloadBits
		c.fe.Dead = dead
		c.fe.finalize()
		fe := c.fe
		out.FrontEnd = &fe
	}
	if c.cfg.StoreBuffer {
		c.sbPending.each(func(body int, occ uint64) {
			c.sb.add(occ, catOf(body))
		})
		c.sb.Cycles = cycles
		c.sb.Entries = c.cfg.StoreBufferCap
		c.sb.finalize()
		sb := c.sb
		out.StoreBuffer = &sb
	}
	if c.cfg.RegFile {
		out.RegFile = analyzeRegFileLog(log, c.issues, cats, c.bits, cycles)
	}
	if c.cfg.ROBSize > 0 {
		robReads.fold(&c.rob)
		c.rob.Cycles = cycles
		c.rob.Entries = c.cfg.ROBSize
		c.rob.BitsPer = isa.EntryPayloadBits
		c.rob.Dead = dead
		c.rob.finalize()
		rob := c.rob
		out.ROB = &rob
	}
	if c.cfg.LSQSize > 0 {
		c.lsqPending.each(func(body int, occ uint64) {
			c.lsq.add(occ, catOf(body))
		})
		c.lsq.Cycles = cycles
		c.lsq.Entries = c.cfg.LSQSize
		c.lsq.finalize()
		lsq := c.lsq
		out.LSQ = &lsq
	}
	return out
}
