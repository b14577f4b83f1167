package pipeline

import (
	"reflect"
	"testing"

	"softerror/internal/cache"
	"softerror/internal/isa"
)

// TestRules pins the timing rules both engines share (rules.go). The
// lane-versus-reference differentials cannot see a bug in a shared rule —
// both sides would inherit it — so each rule is checked here against
// hand-computed values.
func TestRules(t *testing.T) {
	t.Run("readyAt", func(t *testing.T) {
		var regs [isa.NumRegs]uint64
		g, a, b := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3)
		regs[g], regs[a], regs[b] = 7, 5, 9
		inst := func(class isa.Class, guard, src1, src2 isa.Reg, predFalse bool) *isa.Inst {
			in := blankInst(class)
			in.PredGuard, in.Src1, in.Src2, in.PredFalse = guard, src1, src2, predFalse
			return &in
		}
		for _, c := range []struct {
			name         string
			in           *isa.Inst
			storeBlocked bool
			want         uint64
		}{
			{"no operands", inst(isa.ClassALU, isa.RegNone, isa.RegNone, isa.RegNone, false), false, 0},
			{"max of sources", inst(isa.ClassALU, isa.RegNone, a, b, false), false, 9},
			{"max of sources, swapped", inst(isa.ClassALU, isa.RegNone, b, a, false), false, 9},
			{"Src1 RegNone ignored", inst(isa.ClassALU, isa.RegNone, isa.RegNone, a, false), false, 5},
			{"Src2 RegNone ignored", inst(isa.ClassALU, isa.RegNone, a, isa.RegNone, false), false, 5},
			{"guard joins the max", inst(isa.ClassALU, g, a, isa.RegNone, false), false, 7},
			{"pred-false waits only on its guard", inst(isa.ClassALU, g, b, b, true), false, 7},
			{"pred-false without guard", inst(isa.ClassLoad, isa.RegNone, b, isa.RegNone, true), false, 0},
			{"blocked store never issues", inst(isa.ClassStore, isa.RegNone, a, isa.RegNone, false), true, neverCycle},
			{"unblocked store waits on sources", inst(isa.ClassStore, isa.RegNone, a, b, false), false, 9},
			{"blocked pred-false store waits on guard", inst(isa.ClassStore, g, a, isa.RegNone, true), true, 7},
			{"full buffer does not block non-stores", inst(isa.ClassLoad, isa.RegNone, a, isa.RegNone, false), true, 5},
		} {
			if got := readyAt(&regs, c.in, c.storeBlocked); got != c.want {
				t.Errorf("%s: readyAt = %d, want %d", c.name, got, c.want)
			}
		}
	})

	t.Run("admits", func(t *testing.T) {
		cfg := Config{OutOfOrder: true}.Normalized()
		all := []isa.Class{isa.ClassALU, isa.ClassFPU, isa.ClassLoad, isa.ClassStore, isa.ClassBranch,
			isa.ClassCall, isa.ClassReturn, isa.ClassNop, isa.ClassHint, isa.ClassPrefetch, isa.ClassIO}
		for _, c := range all {
			lsqOp := c == isa.ClassLoad || c == isa.ClassStore
			if !admits(&cfg, cfg.ROBSize-1, cfg.LSQSize-1, c) {
				t.Errorf("%v refused with room in both queues", c)
			}
			if admits(&cfg, cfg.ROBSize, 0, c) {
				t.Errorf("%v admitted into a full ROB", c)
			}
			if got := admits(&cfg, 0, cfg.LSQSize, c); got == lsqOp {
				t.Errorf("full LSQ: admits(%v) = %v, want %v (only loads and stores need an entry)", c, got, !lsqOp)
			}
		}
	})

	t.Run("trigger", func(t *testing.T) {
		mem := cache.MustNewDefault()
		l0 := uint64(mem.Level(cache.LevelL0).Config().HitLatency)
		l1 := uint64(mem.Level(cache.LevelL1).Config().HitLatency)
		const now, seq = 100, 42
		for _, c := range []struct {
			name             string
			squash, throttle Trigger
			res              cache.AccessResult
			wantSquash       []squashEvent
			wantThrottle     []throttleEvent
		}{
			{"L1 squash on an L2 hit", TriggerL1Miss, TriggerNone,
				cache.AccessResult{Level: cache.LevelL2, Latency: 25},
				[]squashEvent{{at: now + l1, loadSeq: seq, missReturn: now + 25}}, nil},
			{"L0 throttle on memory", TriggerNone, TriggerL0Miss,
				cache.AccessResult{Level: cache.LevelMemory, Latency: 180},
				nil, []throttleEvent{{at: now + l0, missReturn: now + 180}}},
			{"both levels at once", TriggerL0Miss, TriggerL1Miss,
				cache.AccessResult{Level: cache.LevelL2, Latency: 25},
				[]squashEvent{{at: now + l0, loadSeq: seq, missReturn: now + 25}},
				[]throttleEvent{{at: now + l1, missReturn: now + 25}}},
			{"hit at the squash level fires nothing", TriggerL1Miss, TriggerNone,
				cache.AccessResult{Level: cache.LevelL1, Latency: int(l1)}, nil, nil},
			{"hit at the throttle level fires nothing", TriggerNone, TriggerL0Miss,
				cache.AccessResult{Level: cache.LevelL0, Latency: int(l0)}, nil, nil},
			{"no trigger configured", TriggerNone, TriggerNone,
				cache.AccessResult{Level: cache.LevelMemory, Latency: 180}, nil, nil},
		} {
			cfg := DefaultConfig()
			cfg.SquashTrigger, cfg.ThrottleTrigger = c.squash, c.throttle
			var q missQueue
			q.trigger(&cfg, mem, seq, c.res, now)
			if !reflect.DeepEqual(q.squashQ, c.wantSquash) || !reflect.DeepEqual(q.throttleQ, c.wantThrottle) {
				t.Errorf("%s: squash %+v throttle %+v, want %+v %+v",
					c.name, q.squashQ, q.throttleQ, c.wantSquash, c.wantThrottle)
			}
		}
	})

	t.Run("writeDest", func(t *testing.T) {
		var regs [isa.NumRegs]uint64
		regs[isa.IntReg(4)] = 3
		in := blankInst(isa.ClassALU)
		in.Dest = isa.IntReg(4)
		writeDest(&regs, &in, 12)
		if regs[isa.IntReg(4)] != 12 {
			t.Errorf("dest ready at %d, want 12", regs[isa.IntReg(4)])
		}
		before := regs
		none := blankInst(isa.ClassStore)
		writeDest(&regs, &none, 99)
		if regs != before {
			t.Error("a destination-less instruction wrote a register")
		}
	})

	t.Run("sortRefetch", func(t *testing.T) {
		// Earlier victims still queued, then a squash's victims appended
		// behind them, one older than the queue head.
		q := []streamRef{{seq: 4}, {seq: 7}, {seq: 9}, {seq: 2}, {seq: 8}}
		sortRefetch(q, func(r *streamRef) uint64 { return r.seq })
		var got []uint64
		for _, r := range q {
			got = append(got, r.seq)
		}
		if want := []uint64{2, 4, 7, 8, 9}; !reflect.DeepEqual(got, want) {
			t.Errorf("refetch order %v, want %v", got, want)
		}
	})

	t.Run("applySquashes", func(t *testing.T) {
		q := missQueue{squashQ: []squashEvent{
			{at: 5, loadSeq: 1}, {at: 9, loadSeq: 2}, {at: 7, loadSeq: 3}, {at: 8, loadSeq: 4},
		}}
		var fired []uint64
		q.applySquashes(7, func(now uint64, ev squashEvent) {
			if now != 7 {
				t.Errorf("squash fired with now = %d, want 7", now)
			}
			fired = append(fired, ev.loadSeq)
		})
		if want := []uint64{1, 3}; !reflect.DeepEqual(fired, want) {
			t.Fatalf("fired loads %v, want the due ones in queue order %v", fired, want)
		}
		if want := []squashEvent{{at: 9, loadSeq: 2}, {at: 8, loadSeq: 4}}; !reflect.DeepEqual(q.squashQ, want) {
			t.Fatalf("pending %+v, want %+v", q.squashQ, want)
		}
	})

	t.Run("applyThrottles", func(t *testing.T) {
		q := missQueue{throttleQ: []throttleEvent{
			{at: 5, missReturn: 40}, {at: 9, missReturn: 90}, {at: 7, missReturn: 30},
		}}
		if fired := q.applyThrottles(7); fired != 2 {
			t.Fatalf("fired %d events at cycle 7, want 2", fired)
		}
		if q.stallUntil != 40 {
			t.Fatalf("stallUntil = %d, want the latest due miss return 40", q.stallUntil)
		}
		if want := []throttleEvent{{at: 9, missReturn: 90}}; !reflect.DeepEqual(q.throttleQ, want) {
			t.Fatalf("pending %+v, want %+v", q.throttleQ, want)
		}
	})

	t.Run("squashRestart", func(t *testing.T) {
		for _, c := range []struct {
			name                   string
			stall, now, missReturn uint64
			overlap                int
			wantStall              uint64
		}{
			{"restarts overlap cycles before the miss returns", 0, 10, 50, 4, 46},
			{"miss returning inside the overlap saturates at now", 0, 3, 5, 8, 3},
			{"restart already past clamps to now", 0, 10, 12, 4, 10},
			{"zero overlap restarts at the miss return", 0, 10, 50, 0, 50},
			{"a longer stall is kept", 60, 10, 50, 4, 60},
		} {
			q := missQueue{stallUntil: c.stall}
			q.squashRestart(c.now, c.missReturn, c.overlap)
			if q.stallUntil != c.wantStall {
				t.Errorf("%s: stallUntil = %d, want %d", c.name, q.stallUntil, c.wantStall)
			}
		}
	})
}
