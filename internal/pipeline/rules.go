package pipeline

import (
	"softerror/internal/cache"
	"softerror/internal/isa"
)

// This file holds the core model's pure timing rules, once: when an
// instruction may issue, when its result is ready, when dispatch has room,
// what a triggering load miss schedules, when scheduled squashes fire and
// in what order their victims refetch. Both engines — the reference interpreter
// (pipeline.go, ooo.go) and the lane engine (batch.go, batchooo.go) — call
// these rules. What stays per engine is what the differential checks
// actually compare: queue mechanics, event-horizon skipping, wrong-path
// relabelling and squash/flush compaction.

// neverCycle is the "no scheduled event" horizon sentinel.
const neverCycle = ^uint64(0)

// readyAt returns the first cycle the correct-path instruction in may
// issue under stall-on-use scoreboarding, or neverCycle while a full store
// buffer blocks it (storeBlocked). A predicated-false instruction waits
// only on its guard: its operand values are irrelevant. Issue tests
// readyAt(...) > now; wrong-path instructions never wait, and callers skip
// them.
func readyAt(regReady *[isa.NumRegs]uint64, in *isa.Inst, storeBlocked bool) uint64 {
	t := uint64(0)
	if in.PredGuard != isa.RegNone {
		t = regReady[in.PredGuard]
	}
	if in.PredFalse {
		return t
	}
	if storeBlocked && in.Class == isa.ClassStore {
		return neverCycle
	}
	if in.Src1 != isa.RegNone && regReady[in.Src1] > t {
		t = regReady[in.Src1]
	}
	if in.Src2 != isa.RegNone && regReady[in.Src2] > t {
		t = regReady[in.Src2]
	}
	return t
}

// writeDest marks in's destination register ready at cycle readyAt; an
// instruction without a destination writes nothing.
func writeDest(regReady *[isa.NumRegs]uint64, in *isa.Inst, readyAt uint64) {
	if in.Dest != isa.RegNone {
		regReady[in.Dest] = readyAt
	}
}

// sortRefetch restores fetch order (ascending seq) in a refetch queue
// after a squash appends its victims behind earlier, not-yet-refetched
// ones. Each engine queues its own entry type; seq reads an entry's
// sequence number.
func sortRefetch[T any](q []T, seq func(*T) uint64) {
	// Insertion sort: the queue is short and nearly sorted.
	for i := 1; i < len(q); i++ {
		for j := i; j > 0 && seq(&q[j-1]) > seq(&q[j]); j-- {
			q[j-1], q[j] = q[j], q[j-1]
		}
	}
}

// admits reports whether out-of-order dispatch has room for one more
// instruction of class c, given robN and lsqN occupied entries: a free ROB
// entry, plus a free LSQ entry for memory operations.
func admits(cfg *Config, robN, lsqN int, c isa.Class) bool {
	if robN >= cfg.ROBSize {
		return false
	}
	return lsqN < cfg.LSQSize || (c != isa.ClassLoad && c != isa.ClassStore)
}

type squashEvent struct {
	at         uint64
	loadSeq    uint64
	missReturn uint64
}

type throttleEvent struct {
	at         uint64
	missReturn uint64
}

// missQueue is the exposure-reduction state both engines embed: squash
// and throttle events scheduled by triggering load misses, and the cycle
// fetch is stalled until.
type missQueue struct {
	squashQ    []squashEvent
	throttleQ  []throttleEvent
	stallUntil uint64
}

// trigger schedules exposure-reduction actions for the load loadSeq,
// serviced at res. Each action fires when the miss is *detected* — when
// the trigger-level cache would have responded, its HitLatency after now —
// and carries the cycle the miss returns. A load served at or inside the
// trigger level fires nothing.
func (q *missQueue) trigger(cfg *Config, mem *cache.Hierarchy, loadSeq uint64, res cache.AccessResult, now uint64) {
	missReturn := now + uint64(res.Latency)
	if lvl := cfg.SquashTrigger.level(); lvl >= 0 && res.MissedLevel(lvl) {
		q.squashQ = append(q.squashQ, squashEvent{
			at:         now + uint64(mem.Level(lvl).Config().HitLatency),
			loadSeq:    loadSeq,
			missReturn: missReturn,
		})
	}
	if lvl := cfg.ThrottleTrigger.level(); lvl >= 0 && res.MissedLevel(lvl) {
		q.throttleQ = append(q.throttleQ, throttleEvent{
			at:         now + uint64(mem.Level(lvl).Config().HitLatency),
			missReturn: missReturn,
		})
	}
}

// applySquashes fires the squash events due at now through squash, in
// queue order, and keeps the later ones queued.
func (q *missQueue) applySquashes(now uint64, squash func(now uint64, ev squashEvent)) {
	if len(q.squashQ) == 0 {
		return
	}
	rest := q.squashQ[:0]
	for _, ev := range q.squashQ {
		if ev.at > now {
			rest = append(rest, ev)
			continue
		}
		squash(now, ev)
	}
	q.squashQ = rest
}

// applyThrottles fires the throttle events due at now, stalling fetch
// until each miss returns, and reports how many fired.
func (q *missQueue) applyThrottles(now uint64) (fired uint64) {
	rest := q.throttleQ[:0]
	for _, ev := range q.throttleQ {
		if ev.at > now {
			rest = append(rest, ev)
			continue
		}
		fired++
		if ev.missReturn > q.stallUntil {
			q.stallUntil = ev.missReturn
		}
	}
	q.throttleQ = rest
	return fired
}

// squashRestart stalls fetch after a squash at now until refetch may
// restart: overlap cycles before the miss returns, so the front-end refill
// overlaps the remaining miss shadow. The subtraction saturates: a miss
// that returns within the overlap window (tiny warm-up cycle counts, large
// overlap sweeps) restarts at now instead of wrapping to a near-infinite
// stall.
func (q *missQueue) squashRestart(now, missReturn uint64, overlap int) {
	restart := now
	if o := uint64(overlap); missReturn > o && missReturn-o > now {
		restart = missReturn - o
	}
	if restart > q.stallUntil {
		q.stallUntil = restart
	}
}
