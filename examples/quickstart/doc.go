// Package quickstart simulates one workload, prints the instruction
// queue's vulnerability profile, and shows the MITF arithmetic of §3.2.
// The package is its Example; run it with
//
//	go test -run Example -v ./examples/quickstart
package quickstart
