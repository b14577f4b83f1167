// Package squashstudy runs the exposure-reduction trade-off of §3 on a
// memory-bound workload. It sweeps the squash triggers and fetch
// throttling, and reasons about the performance/reliability trade with the
// MITF metric: a policy is worthwhile only if it raises IPC/AVF — i.e. if
// it cuts the AVF by more than it cuts the IPC. The package is its
// Example; run it with
//
//	go test -run Example -v ./examples/squashstudy
package squashstudy
