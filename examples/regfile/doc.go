// Package regfile reproduces the paper's closing extension — "once these
// mechanisms are in place, they can also reduce the AVF of other
// structures, such as the register file." It computes the architectural
// register files' vulnerability decomposition across contrasting
// benchmarks and shows how much of a parity-protected file's DUE rate the
// π-bit machinery would remove (the dead-read windows are exactly what π
// propagation covers). The package is its Example; run it with
//
//	go test -run Example -v ./examples/regfile
package regfile
