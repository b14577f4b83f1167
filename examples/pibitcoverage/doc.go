// Package pibitcoverage demonstrates the false-DUE tracking stack of §4
// two ways. First, the PET buffer as a concrete data structure: a
// committed stream pushed through it proves a first-level dead
// instruction harmless at eviction time. Second, a fault-injection
// campaign on a full simulation shows how each cumulative π-bit
// deployment converts false DUEs into suppressions without ever losing a
// true error. The package is its Examples; run them with
//
//	go test -run Example -v ./examples/pibitcoverage
package pibitcoverage
