// Package serverclient runs seratd's engine end to end in one process: it
// starts the evaluation service on an ephemeral port, then plays a client
// against it — an evaluation computed once and then served from cache
// byte-identically, a sweep job followed live over the ndjson event
// stream, the finished grid fetched as CSV, and a metrics snapshot. Its
// Example prints the shape of each exchange, not the port or timings; run
// it with
//
//	go test -run Example -v ./examples/serverclient
package serverclient
