package core

import (
	"fmt"

	"softerror/internal/ace"
	"softerror/internal/isa"
	"softerror/internal/serate"
	"softerror/internal/spec"
)

// ProtectionRow is one row of the protection-scheme comparison: the
// absolute SDC and DUE rates of the instruction queue under a protection
// choice, composed from the measured AVFs and a raw per-bit rate (§2's
// rate equations, §8's design-space summary).
type ProtectionRow struct {
	Scheme string
	SDCFIT serate.FIT
	DUEFIT serate.FIT
}

// protectionPolicies are the two design points the protection study
// measures; [0] and [1] index protectionInputs in this order.
var protectionPolicies = []Policy{PolicyBaseline, PolicySquashL1}

// protectionInputs are one benchmark's IQ AVFs the protection study
// composes, under the baseline ([0]) and squash-L1 ([1]): the SDC AVF, the
// false DUE AVF, and the false DUE left by π-bit tracking to the store
// buffer and through memory (512-entry PET).
type protectionInputs struct {
	sdc, falseDUE, store, mem [2]float64
}

// Protection composes the IQ's absolute error rates under the design
// options the paper discusses: leave it unprotected, add parity
// (conservative), add parity plus the π-bit stack at the store-buffer or
// memory level, add squashing on top, or correct with ECC. rawFITPerBit is
// the technology's raw soft-error rate per bit.
//
// The study always measures the in-order core, whatever the suite's
// OutOfOrder, so it runs its own baseline and squash-L1 batch per
// benchmark rather than reading the policy memo. Each benchmark's inputs
// are memoised with the suite, and misses fan out over the worker pool.
func (s *Suite) Protection(rawFITPerBit float64) ([]ProtectionRow, error) {
	ins := make([]protectionInputs, len(s.Benches))
	err := s.eachBench(func(a *Arena, i int) (err error) {
		ins[i], err = s.protectionInputs(a, s.Benches[i])
		return err
	})
	if err != nil {
		return nil, err
	}

	// Mean AVFs across the roster, summed in roster order.
	var mean protectionInputs
	for k := range protectionPolicies {
		for _, in := range ins {
			mean.sdc[k] += in.sdc[k]
			mean.falseDUE[k] += in.falseDUE[k]
			mean.store[k] += in.store[k]
			mean.mem[k] += in.mem[k]
		}
		n := float64(len(ins))
		mean.sdc[k] /= n
		mean.falseDUE[k] /= n
		mean.store[k] /= n
		mean.mem[k] /= n
	}

	bits := float64(64) * float64(isa.EntryPayloadBits)
	raw := serate.FIT(rawFITPerBit * bits)
	row := func(scheme string, sdcAVF, dueAVF float64) ProtectionRow {
		sdc, due := serate.Rates([]serate.Device{
			{Name: "iq", RawFIT: raw, SDCAVF: sdcAVF, DUEAVF: dueAVF},
		})
		return ProtectionRow{Scheme: scheme, SDCFIT: sdc, DUEFIT: due}
	}
	return []ProtectionRow{
		row("unprotected", mean.sdc[0], 0),
		row("unprotected + squash-L1", mean.sdc[1], 0),
		row("parity (conservative)", 0, mean.sdc[0]+mean.falseDUE[0]),
		row("parity + pi to store buffer", 0, mean.sdc[0]+mean.store[0]),
		row("parity + pi through memory", 0, mean.sdc[0]+mean.mem[0]),
		row("parity + pi + squash-L1", 0, mean.sdc[1]+mean.store[1]),
		row("ecc (corrects single-bit)", 0, 0),
	}, nil
}

// protectionInputs returns b's memoised protection inputs, running its
// in-order batch on arena a on a miss.
func (s *Suite) protectionInputs(a *Arena, b spec.Benchmark) (protectionInputs, error) {
	return memoised(s, s.protection, b.Name, func() (protectionInputs, error) {
		var in protectionInputs
		res, err := RunBatchArena(s.ctx(), a, b.Params, s.Commits, policySpecs(protectionPolicies, false))
		if err != nil {
			return in, fmt.Errorf("core: protection %s: %w", b.Name, err)
		}
		for k, r := range res {
			in.sdc[k] = r.Report.SDCAVF()
			in.falseDUE[k] = r.Report.FalseDUEAVF()
			in.store[k] = r.Report.FalseDUERemaining(ace.TrackStoreBuffer, 512)
			in.mem[k] = r.Report.FalseDUERemaining(ace.TrackMemory, 512)
		}
		return in, nil
	})
}
