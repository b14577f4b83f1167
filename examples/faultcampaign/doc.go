// Package faultcampaign reproduces Figure 1's outcome taxonomy empirically
// and cross-checks the Monte-Carlo estimates against the analytic ACE-based
// AVFs — the consistency argument behind the paper's methodology. The
// package is its Example; run it with
//
//	go test -run Example -v ./examples/faultcampaign
package faultcampaign
