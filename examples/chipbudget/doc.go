// Package chipbudget runs the §2 design loop end to end: it measures the
// AVFs of every modelled structure on a real simulation, composes them
// into chip-level SDC/DUE rates, checks vendor-style MTTF targets, and
// lets the planner pick the cheapest protection mix that meets them. The
// package is its Example; run it with
//
//	go test -run Example -v ./examples/chipbudget
package chipbudget
