package pipeline

import (
	"sort"
	"testing"

	"softerror/internal/cache"
	"softerror/internal/isa"
	"softerror/internal/workload"
)

// scriptSource feeds a fixed instruction list, then no-ops forever. It
// stamps sequence numbers in fetch order, like the real generator.
type scriptSource struct {
	insts []isa.Inst
	idx   int
	seq   uint64
}

func blankInst(class isa.Class) isa.Inst {
	return isa.Inst{
		Class: class,
		Dest:  isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		PredGuard: isa.RegNone,
	}
}

func (s *scriptSource) stamp(in isa.Inst) isa.Inst {
	in.Seq = s.seq
	in.PC = 0x1000 + 4*s.seq
	s.seq++
	return in
}

func (s *scriptSource) Next() isa.Inst {
	if s.idx < len(s.insts) {
		in := s.insts[s.idx]
		s.idx++
		return s.stamp(in)
	}
	return s.stamp(blankInst(isa.ClassNop))
}

func (s *scriptSource) NextWrong() isa.Inst {
	in := blankInst(isa.ClassALU)
	in.WrongPath = true
	return s.stamp(in)
}

func newMem(t testing.TB) *cache.Hierarchy {
	t.Helper()
	return cache.MustNewDefault()
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.IQSize = 0 },
		func(c *Config) { c.FrontEndDepth = 0 },
		func(c *Config) { c.BranchResolveLatency = 0 },
		func(c *Config) { c.ALULatency = 0 },
		func(c *Config) { c.FPLatency = 0 },
		func(c *Config) { c.ReplayWindow = -1 },
		func(c *Config) { c.SquashTrigger = 99 },
		func(c *Config) { c.ThrottleTrigger = 99 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestTriggerString(t *testing.T) {
	if TriggerNone.String() != "none" || TriggerL0Miss.String() != "l0-miss" || TriggerL1Miss.String() != "l1-miss" {
		t.Error("trigger names wrong")
	}
	if Trigger(9).String() == "" {
		t.Error("unknown trigger should render")
	}
}

func TestNewRejects(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := New(cfg, nil, newMem(t)); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := New(cfg, &scriptSource{}, nil); err == nil {
		t.Error("nil memory accepted")
	}
	cfg.IQSize = 0
	if _, err := New(cfg, &scriptSource{}, newMem(t)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestIndependentALUThroughput(t *testing.T) {
	// Independent single-cycle ALU work: IPC should approach the machine
	// width (fetch = issue = 6).
	var insts []isa.Inst
	for i := 0; i < 1200; i++ {
		in := blankInst(isa.ClassALU)
		in.Dest = isa.IntReg(1 + i%30)
		insts = append(insts, in)
	}
	p := MustNew(DefaultConfig(), &scriptSource{insts: insts}, newMem(t))
	tr := p.Run(1200, true)
	if ipc := tr.IPC(); ipc < 5.0 {
		t.Fatalf("independent-ALU IPC = %.2f, want > 5", ipc)
	}
}

func TestDependentChainSerialises(t *testing.T) {
	// Every instruction reads the previous result: IPC must collapse to
	// about 1 (ALULatency=1 plus issue overheads).
	var insts []isa.Inst
	for i := 0; i < 600; i++ {
		in := blankInst(isa.ClassALU)
		in.Dest = isa.IntReg(1)
		in.Src1 = isa.IntReg(1)
		insts = append(insts, in)
	}
	p := MustNew(DefaultConfig(), &scriptSource{insts: insts}, newMem(t))
	tr := p.Run(600, true)
	if ipc := tr.IPC(); ipc > 1.2 {
		t.Fatalf("dependent-chain IPC = %.2f, want ~1", ipc)
	}
}

func TestLoadMissStallsDependent(t *testing.T) {
	// A cold load (memory latency 200) followed by its consumer: the run
	// must take at least the memory latency.
	load := blankInst(isa.ClassLoad)
	load.Dest = isa.IntReg(5)
	load.Src1 = isa.IntReg(1)
	load.Addr = 0x5000_0000
	load.MemSize = 8
	use := blankInst(isa.ClassALU)
	use.Dest = isa.IntReg(6)
	use.Src1 = isa.IntReg(5)
	p := MustNew(DefaultConfig(), &scriptSource{insts: []isa.Inst{load, use}}, newMem(t))
	tr := p.Run(2, true)
	if tr.Cycles < 200 {
		t.Fatalf("run took %d cycles, want >= 200 (memory latency)", tr.Cycles)
	}
	if tr.LoadsByLevel[cache.LevelMemory] != 1 {
		t.Fatalf("LoadsByLevel = %v, want one memory access", tr.LoadsByLevel)
	}
}

func TestPredFalseSkipsExecution(t *testing.T) {
	// A predicated-false load must not access memory and must not write
	// its destination, but must still commit.
	load := blankInst(isa.ClassLoad)
	load.Dest = isa.IntReg(5)
	load.Src1 = isa.IntReg(1)
	load.Addr = 0x5000_0000
	load.PredGuard = isa.PredReg(1)
	load.PredFalse = true
	use := blankInst(isa.ClassALU)
	use.Dest = isa.IntReg(6)
	use.Src1 = isa.IntReg(5)
	p := MustNew(DefaultConfig(), &scriptSource{insts: []isa.Inst{load, use}}, newMem(t))
	tr := p.Run(2, true)
	if tr.Cycles > 100 {
		t.Fatalf("pred-false load stalled the pipe: %d cycles", tr.Cycles)
	}
	var total uint64
	for _, n := range tr.LoadsByLevel {
		total += n
	}
	if total != 0 {
		t.Fatalf("pred-false load accessed memory: %v", tr.LoadsByLevel)
	}
}

func TestSquashOnMissRefetches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SquashTrigger = TriggerL1Miss
	// Load misses everything; a dependent blocks issue; 40 trailing
	// instructions pool in the IQ and get squashed, then refetched.
	load := blankInst(isa.ClassLoad)
	load.Dest = isa.IntReg(5)
	load.Src1 = isa.IntReg(1)
	load.Addr = 0x5000_0000
	use := blankInst(isa.ClassALU)
	use.Dest = isa.IntReg(6)
	use.Src1 = isa.IntReg(5)
	insts := []isa.Inst{load, use}
	for i := 0; i < 40; i++ {
		in := blankInst(isa.ClassALU)
		in.Dest = isa.IntReg(10 + i%20)
		insts = append(insts, in)
	}
	const n = uint64(2 + 40)
	p := MustNew(cfg, &scriptSource{insts: insts}, newMem(t))
	tr := p.Run(n, true)

	if tr.Squashes == 0 {
		t.Fatal("no squash fired on an L1 miss with SquashTrigger set")
	}
	if tr.Refetches == 0 {
		t.Fatal("squash produced no refetches")
	}
	// Run stops at the first cycle reaching the target; up to IssueWidth-1
	// extra commits can land in that final cycle.
	if tr.Commits < n || tr.Commits >= n+uint64(cfg.IssueWidth) {
		t.Fatalf("Commits = %d, want in [%d, %d)", tr.Commits, n, n+uint64(cfg.IssueWidth))
	}
	if tr.FetchStallCycles == 0 {
		t.Fatal("squash did not stall fetch")
	}
	// Each Seq must commit (issue) exactly once despite refetch.
	issued := map[uint64]int{}
	for _, r := range tr.Residencies {
		if r.Issued {
			issued[r.Inst.Seq]++
		}
	}
	for seq, k := range issued {
		if k != 1 {
			t.Fatalf("seq %d issued %d times", seq, k)
		}
	}
	// Squashed copies must exist and be unissued.
	squashed := 0
	for _, r := range tr.Residencies {
		if r.Squashed {
			squashed++
			if r.Issued {
				t.Fatalf("squashed residency marked issued: %+v", r)
			}
		}
	}
	if squashed == 0 {
		t.Fatal("no squashed residencies recorded")
	}
}

func TestSquashRestartUnderflowClamped(t *testing.T) {
	// A squash whose miss returns within the refetch-overlap window used to
	// compute restart = missReturn - RefetchOverlap on uint64, wrapping to
	// ~2^64 and stalling fetch for the rest of the run. The subtraction must
	// saturate at zero (then clamp up to now).
	cfg := DefaultConfig()
	cfg.SquashTrigger = TriggerL1Miss
	cfg.RefetchOverlap = 8
	p := MustNew(cfg, &scriptSource{}, newMem(t))
	p.doSquash(3, squashEvent{at: 3, loadSeq: 0, missReturn: 5})
	if p.stallUntil != 3 {
		t.Fatalf("stallUntil = %d, want 3 (restart clamped, not wrapped)", p.stallUntil)
	}
	// The pipeline must still make progress afterwards: with the wrapped
	// stall this run would never fetch again.
	tr := p.Run(100, false)
	if tr.Commits < 100 {
		t.Fatalf("pipeline stalled after early-returning squash: %d commits", tr.Commits)
	}
}

func TestNoSquashWithoutTrigger(t *testing.T) {
	load := blankInst(isa.ClassLoad)
	load.Dest = isa.IntReg(5)
	load.Src1 = isa.IntReg(1)
	load.Addr = 0x5000_0000
	p := MustNew(DefaultConfig(), &scriptSource{insts: []isa.Inst{load}}, newMem(t))
	tr := p.Run(50, true)
	if tr.Squashes != 0 || tr.Refetches != 0 {
		t.Fatalf("squash fired with TriggerNone: %+v", tr)
	}
}

func TestThrottleStallsWithoutSquashing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThrottleTrigger = TriggerL1Miss
	load := blankInst(isa.ClassLoad)
	load.Dest = isa.IntReg(5)
	load.Src1 = isa.IntReg(1)
	load.Addr = 0x5000_0000
	use := blankInst(isa.ClassALU)
	use.Dest = isa.IntReg(6)
	use.Src1 = isa.IntReg(5)
	p := MustNew(cfg, &scriptSource{insts: []isa.Inst{load, use}}, newMem(t))
	tr := p.Run(30, true)
	if tr.ThrottleEvents == 0 {
		t.Fatal("no throttle event on L1 miss")
	}
	if tr.FetchStallCycles == 0 {
		t.Fatal("throttle did not stall fetch")
	}
	if tr.Squashes != 0 || tr.Refetches != 0 {
		t.Fatal("throttle must not squash")
	}
}

func TestWrongPathFlushedNeverCommits(t *testing.T) {
	br := blankInst(isa.ClassBranch)
	br.Src1 = isa.IntReg(1)
	br.Taken = true
	br.Mispred = true
	var insts []isa.Inst
	insts = append(insts, br)
	for i := 0; i < 50; i++ {
		in := blankInst(isa.ClassALU)
		in.Dest = isa.IntReg(2 + i%10)
		insts = append(insts, in)
	}
	p := MustNew(DefaultConfig(), &scriptSource{insts: insts}, newMem(t))
	tr := p.Run(51, true)

	if tr.WrongFlushes == 0 {
		t.Fatal("mispredicted branch produced no wrong-path flushes")
	}
	for _, in := range tr.CommitLog {
		if in.WrongPath {
			t.Fatalf("wrong-path instruction committed: %v", in)
		}
	}
	// Wrong-path residencies must exist (they occupied the IQ).
	sawWrong := false
	for _, r := range tr.Residencies {
		if r.Inst.WrongPath {
			sawWrong = true
			break
		}
	}
	if !sawWrong {
		t.Fatal("no wrong-path residencies recorded")
	}
}

func TestResidencyInvariants(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	cfg := DefaultConfig()
	cfg.SquashTrigger = TriggerL1Miss
	p := MustNew(cfg, gen, newMem(t))
	tr := p.Run(20000, true)

	var occupied uint64
	for _, r := range tr.Residencies {
		if r.Evict < r.Enq {
			t.Fatalf("residency evict < enq: %+v", r)
		}
		if r.Issued && (r.Issue < r.Enq || r.Issue > r.Evict) {
			t.Fatalf("issue outside residency: %+v", r)
		}
		if r.Squashed && r.Issued {
			t.Fatalf("squashed residency marked issued: %+v", r)
		}
		occupied += r.Occupancy()
	}
	if max := tr.Cycles * uint64(tr.IQSize); occupied > max {
		t.Fatalf("occupancy %d exceeds capacity %d", occupied, max)
	}
	// Commit log sequence numbers strictly increase (in-order commit).
	for i := 1; i < len(tr.CommitLog); i++ {
		if tr.CommitLog[i].Seq <= tr.CommitLog[i-1].Seq {
			t.Fatalf("commit log out of order at %d: %d then %d",
				i, tr.CommitLog[i-1].Seq, tr.CommitLog[i].Seq)
		}
	}
	if uint64(len(tr.CommitLog)) != tr.Commits {
		t.Fatalf("commit log length %d != commits %d", len(tr.CommitLog), tr.Commits)
	}
}

func TestGeneratorRunDeterministic(t *testing.T) {
	run := func() *Trace {
		gen := workload.MustNew(workload.Default())
		cfg := DefaultConfig()
		cfg.SquashTrigger = TriggerL1Miss
		p := MustNew(cfg, gen, cache.MustNewDefault())
		return p.Run(10000, true)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Commits != b.Commits ||
		len(a.Residencies) != len(b.Residencies) ||
		a.Squashes != b.Squashes || a.WrongFlushes != b.WrongFlushes {
		t.Fatalf("non-deterministic runs:\n a={cyc %d com %d res %d sq %d}\n b={cyc %d com %d res %d sq %d}",
			a.Cycles, a.Commits, len(a.Residencies), a.Squashes,
			b.Cycles, b.Commits, len(b.Residencies), b.Squashes)
	}
}

func TestRealisticIPCRange(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	p := MustNew(DefaultConfig(), gen, newMem(t))
	tr := p.Run(30000, true)
	ipc := tr.IPC()
	if ipc < 0.3 || ipc > 4.0 {
		t.Fatalf("baseline IPC = %.2f, outside plausible [0.3, 4.0]", ipc)
	}
}

func TestSquashReducesOccupancyModestIPCCost(t *testing.T) {
	// The Table-1 shape at module level: with a memory-bound workload,
	// squash-on-L1-miss must cut valid IQ occupancy while costing little
	// IPC.
	params := workload.Default()
	params.L0Frac, params.L1Frac, params.L2Frac, params.MemFrac = 0.979, 0.012, 0.008, 0.001

	run := func(trigger Trigger) *Trace {
		gen := workload.MustNew(params)
		cfg := DefaultConfig()
		cfg.SquashTrigger = trigger
		mem := cache.MustNewDefault()
		workload.WarmCaches(mem)
		p := MustNew(cfg, gen, mem)
		return p.Run(30000, true)
	}
	base := run(TriggerNone)
	squash := run(TriggerL1Miss)

	occFrac := func(tr *Trace) float64 {
		var occ uint64
		for _, r := range tr.Residencies {
			if !r.Squashed {
				occ += r.Occupancy()
			}
		}
		return float64(occ) / float64(tr.Cycles*uint64(tr.IQSize))
	}
	baseOcc, squashOcc := occFrac(base), occFrac(squash)
	if squashOcc >= baseOcc {
		t.Fatalf("squash did not reduce unsquashed occupancy: base %.3f squash %.3f", baseOcc, squashOcc)
	}
	ipcLoss := 1 - squash.IPC()/base.IPC()
	if ipcLoss > 0.15 {
		t.Fatalf("squash-on-L1 IPC loss %.1f%%, want modest (<15%%)", ipcLoss*100)
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := &Trace{Stats: Stats{Cycles: 100, Commits: 150}}
	if tr.IPC() != 1.5 {
		t.Fatalf("IPC = %v", tr.IPC())
	}
	empty := &Trace{}
	if empty.IPC() != 0 {
		t.Fatal("empty IPC should be 0")
	}
	tr.LoadsByLevel = [4]uint64{80, 10, 5, 5}
	if got := tr.LoadMissRate(cache.LevelL0); got != 0.20 {
		t.Fatalf("L0 miss rate = %v, want 0.20", got)
	}
	if got := tr.LoadMissRate(cache.LevelL1); got != 0.10 {
		t.Fatalf("L1 miss rate = %v, want 0.10", got)
	}
	if (&Trace{}).LoadMissRate(0) != 0 {
		t.Fatal("empty miss rate should be 0")
	}
	r := Residency{Enq: 10, Evict: 25}
	if r.Occupancy() != 15 {
		t.Fatalf("occupancy = %d", r.Occupancy())
	}
	bad := Residency{Enq: 10, Evict: 5}
	if bad.Occupancy() != 0 {
		t.Fatal("inverted residency should report 0 occupancy")
	}
}

func BenchmarkPipelineBaseline(b *testing.B) {
	gen := workload.MustNew(workload.Default())
	p := MustNew(DefaultConfig(), gen, cache.MustNewDefault())
	b.ResetTimer()
	p.Run(uint64(b.N), false)
}

func BenchmarkPipelineSquashL1(b *testing.B) {
	gen := workload.MustNew(workload.Default())
	cfg := DefaultConfig()
	cfg.SquashTrigger = TriggerL1Miss
	p := MustNew(cfg, gen, cache.MustNewDefault())
	b.ResetTimer()
	p.Run(uint64(b.N), false)
}

func TestOutOfOrderIssueRaisesIPC(t *testing.T) {
	// A stalled load dependence chain interleaved with independent work:
	// out-of-order issue must beat in-order on the same stream.
	params := workload.Default()
	params.L0Frac, params.L1Frac, params.L2Frac, params.MemFrac = 0.96, 0.02, 0.015, 0.005
	params.LoadUseDistance = 2 // tight load-use so in-order stalls hard
	run := func(ooo bool) float64 {
		gen := workload.MustNew(params)
		cfg := DefaultConfig()
		cfg.OutOfOrder = ooo
		mem := cache.MustNewDefault()
		workload.WarmCaches(mem)
		return MustNew(cfg, gen, mem).Run(20000, true).IPC()
	}
	inOrder, outOfOrder := run(false), run(true)
	if outOfOrder <= inOrder {
		t.Fatalf("OoO IPC %.3f should beat in-order %.3f on a stall-heavy stream",
			outOfOrder, inOrder)
	}
}

func TestOutOfOrderSquashStillWorks(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	cfg := DefaultConfig()
	cfg.OutOfOrder = true
	cfg.SquashTrigger = TriggerL1Miss
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	tr := MustNew(cfg, gen, mem).Run(20000, true)
	if tr.Squashes == 0 {
		t.Fatal("no squashes fired in OoO mode")
	}
	// Per-Seq single issue still holds.
	issued := map[uint64]int{}
	for _, r := range tr.Residencies {
		if r.Issued {
			issued[r.Inst.Seq]++
			if issued[r.Inst.Seq] > 1 {
				t.Fatalf("seq %d issued twice in OoO mode", r.Inst.Seq)
			}
		}
	}
}

func TestOutOfOrderCommitLogRestoredToProgramOrder(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	cfg := DefaultConfig()
	cfg.OutOfOrder = true
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	tr := MustNew(cfg, gen, mem).Run(20000, true)
	for i := 1; i < len(tr.CommitLog); i++ {
		if tr.CommitLog[i].Seq <= tr.CommitLog[i-1].Seq {
			t.Fatalf("OoO commit log not in program order at %d", i)
		}
	}
	if len(tr.CommitCycles) != len(tr.CommitLog) {
		t.Fatal("commit cycles out of sync")
	}
}

func TestOutOfOrderRetireInOrderWithinCapacity(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	cfg := DefaultConfig()
	cfg.OutOfOrder = true
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	tr := MustNew(cfg, gen, mem).Run(20000, true)
	if len(tr.ROB) == 0 {
		t.Fatal("OoO run recorded no ROB residencies")
	}
	// Retire (the ROB read point) must follow program order: sorted by
	// Seq, the read cycles of read entries never decrease. Unread entries
	// are squash/flush victims and carry no retire point.
	byseq := append([]Residency(nil), tr.ROB...)
	sort.Slice(byseq, func(i, j int) bool { return byseq[i].Inst.Seq < byseq[j].Inst.Seq })
	var last uint64
	for _, r := range byseq {
		if !r.Issued {
			continue
		}
		if r.Issue < last {
			t.Fatalf("seq %d retired at %d, before its elder at %d", r.Inst.Seq, r.Issue, last)
		}
		last = r.Issue
	}
	// Concurrent occupancy never exceeds the configured capacity. Closed
	// intervals are [Enq, Evict); sweep the endpoints.
	checkCap := func(name string, res []Residency, capacity int) {
		type ev struct {
			cyc   uint64
			delta int
		}
		evs := make([]ev, 0, 2*len(res))
		for _, r := range res {
			evs = append(evs, ev{r.Enq, 1}, ev{r.Evict, -1})
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].cyc != evs[j].cyc {
				return evs[i].cyc < evs[j].cyc
			}
			return evs[i].delta < evs[j].delta // evictions free slots first
		})
		occ, peak := 0, 0
		for _, e := range evs {
			occ += e.delta
			if occ > peak {
				peak = occ
			}
		}
		if peak > capacity {
			t.Fatalf("%s peak occupancy %d exceeds capacity %d", name, peak, capacity)
		}
	}
	checkCap("ROB", tr.ROB, tr.ROBCap)
	checkCap("LSQ", tr.LSQ, tr.LSQCap)
}

func TestOutOfOrderStoreToLoadForwarding(t *testing.T) {
	params := workload.Default()
	params.StoreFrac = 0.2 // plenty of queued stores for loads to hit
	gen := workload.MustNew(params)
	cfg := DefaultConfig()
	cfg.OutOfOrder = true
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	tr := MustNew(cfg, gen, mem).Run(20000, true)
	if tr.ForwardedLoads == 0 {
		t.Fatal("no store-to-load forwarding in an OoO run with 30% stores")
	}
	if len(tr.LSQ) == 0 {
		t.Fatal("no LSQ residencies recorded")
	}
}

func TestFetchBubbleChargedOnceNotOnRefetch(t *testing.T) {
	// A front-end delivery gap (I-cache miss) is charged when the
	// instruction is first fetched; a squash refetch hits a warm I-cache
	// and must not pay it again. Compare two identical squash-heavy runs,
	// one whose instructions carry bubbles and one without: the bubbled
	// run pays each gap exactly once, so the cycle difference is bounded
	// by the total bubble cycles (not doubled by refetches).
	mkInsts := func(bubble uint8) []isa.Inst {
		load := blankInst(isa.ClassLoad)
		load.Dest = isa.IntReg(5)
		load.Src1 = isa.IntReg(1)
		load.Addr = 0x5000_0000
		use := blankInst(isa.ClassALU)
		use.Dest = isa.IntReg(6)
		use.Src1 = isa.IntReg(5)
		insts := []isa.Inst{load, use}
		totalBubbles := uint64(0)
		for i := 0; i < 30; i++ {
			in := blankInst(isa.ClassALU)
			in.Dest = isa.IntReg(10 + i%20)
			if i%5 == 0 {
				in.FetchBubble = bubble
				totalBubbles += uint64(bubble)
			}
			insts = append(insts, in)
		}
		return insts
	}
	run := func(bubble uint8) *Trace {
		cfg := DefaultConfig()
		cfg.SquashTrigger = TriggerL1Miss
		p := MustNew(cfg, &scriptSource{insts: mkInsts(bubble)}, newMem(t))
		return p.Run(32, true)
	}
	plain := run(0)
	bubbled := run(4)
	if bubbled.Refetches == 0 || plain.Refetches == 0 {
		t.Fatal("squash refetches expected in both runs")
	}
	// Six bubbles of 4 cycles each were stamped; if refetch re-paid them
	// the delta would exceed ~48 cycles. Allow scheduling slack.
	delta := int64(bubbled.Cycles) - int64(plain.Cycles)
	if delta < 0 {
		t.Fatalf("bubbles made the run faster? %d vs %d", bubbled.Cycles, plain.Cycles)
	}
	if delta > 40 {
		t.Fatalf("cycle delta %d suggests bubbles were re-paid on refetch", delta)
	}
}
