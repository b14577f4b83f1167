// Package kernel analyses a hand-written loop kernel instead of a
// synthetic benchmark. The mini-language (workload.ParseProgram) lets a
// user express an exact instruction sequence — here a stencil-like loop
// with a known dead write and a predicated pair — and the full stack
// (pipeline, ACE analysis, π-bit levels) runs on it like on any workload.
// The package is its Example; run it with
//
//	go test -run Example -v ./examples/kernel
package kernel
