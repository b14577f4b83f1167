package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/url"
	"testing"
)

// FuzzLeaseRequest drives arbitrary JSON through the lease admission
// surface exactly as the worker's handler does: strict decode, grid build,
// range validation. Accepted leases must name a bounded grid and an
// ascending, disjoint, in-bounds cell set; every rejection must be one of
// the typed admission errors — never a panic, never an untyped rejection,
// never an admitted malformed range.
func FuzzLeaseRequest(f *testing.F) {
	f.Add([]byte(`{"lease":"lease-000001","grid":{"benches":["gzip-graphic"],"policies":["baseline"]},"ranges":[{"lo":0,"hi":1}]}`))
	f.Add([]byte(`{"lease":"l","grid":{"benches":["gzip-graphic","mcf"],"policies":["baseline","squash-l1"],"iqsizes":[16,64],"ooo":[false,true],"commits":5000},"ranges":[{"lo":0,"hi":3},{"lo":5,"hi":9}]}`))
	f.Add([]byte(`{"lease":"empty","grid":{"benches":["mcf"],"policies":["baseline"]},"ranges":[]}`))
	f.Add([]byte(`{"lease":"inverted","grid":{"benches":["mcf"],"policies":["baseline"]},"ranges":[{"lo":3,"hi":1}]}`))
	f.Add([]byte(`{"lease":"negative","grid":{"benches":["mcf"],"policies":["baseline"]},"ranges":[{"lo":-1,"hi":1}]}`))
	f.Add([]byte(`{"lease":"beyond","grid":{"benches":["mcf"],"policies":["baseline"]},"ranges":[{"lo":0,"hi":99}]}`))
	f.Add([]byte(`{"lease":"overlap","grid":{"benches":["mcf"],"policies":["baseline"],"iqsizes":[16,32,64]},"ranges":[{"lo":0,"hi":2},{"lo":1,"hi":3}]}`))
	f.Add([]byte(`{"lease":"unsorted","grid":{"benches":["mcf"],"policies":["baseline"],"iqsizes":[16,32,64]},"ranges":[{"lo":2,"hi":3},{"lo":0,"hi":1}]}`))
	f.Add([]byte(`{"lease":"badbench","grid":{"benches":["nope"],"policies":["baseline"]},"ranges":[{"lo":0,"hi":1}]}`))
	f.Add([]byte(`{"lease":"badpolicy","grid":{"benches":["mcf"],"policies":["nope"]},"ranges":[{"lo":0,"hi":1}]}`))
	f.Add([]byte(`{"lease":"badiq","grid":{"benches":["mcf"],"policies":["baseline"],"iqsizes":[0]},"ranges":[{"lo":0,"hi":1}]}`))
	f.Add([]byte(`{"lease":"nogrid","ranges":[{"lo":0,"hi":1}]}`))
	f.Add([]byte(`{"unknown":true}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req LeaseRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		g, err := req.Grid.Build()
		if err != nil {
			if !errors.Is(err, ErrBadGrid) {
				t.Fatalf("grid rejection is not typed ErrBadGrid: %v", err)
			}
			return
		}
		size := g.Size()
		if size < 1 || size > MaxGridCells {
			t.Fatalf("built grid spans %d cells (cap %d)", size, MaxGridCells)
		}
		if err := req.Validate(size); err != nil {
			for _, want := range []error{ErrEmptyLease, ErrInvertedRange, ErrRangeBounds, ErrRangeOverlap} {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("range rejection is not typed: %v", err)
		}
		cells := req.Cells()
		if len(cells) == 0 {
			t.Fatalf("validated lease flattens to zero cells: %+v", req.Ranges)
		}
		total := 0
		for _, r := range req.Ranges {
			total += r.Count()
		}
		if total != len(cells) {
			t.Fatalf("ranges count %d cells, flattened %d", total, len(cells))
		}
		for k, i := range cells {
			if i < 0 || i >= size {
				t.Fatalf("validated lease names out-of-bounds cell %d (grid %d)", i, size)
			}
			if k > 0 && i <= cells[k-1] {
				t.Fatalf("validated lease cells not strictly ascending: %d after %d", i, cells[k-1])
			}
		}
		// The range compressor must round-trip the flattened set.
		back := LeaseRequest{Lease: req.Lease, Ranges: rangesOf(cells)}
		if err := back.Validate(size); err != nil {
			t.Fatalf("rangesOf(Cells()) does not re-validate: %v", err)
		}
		if got := back.Cells(); len(got) != len(cells) {
			t.Fatalf("rangesOf(Cells()) round-trips %d cells, want %d", len(got), len(cells))
		}
	})
}

// FuzzWorkerRegister drives arbitrary JSON through worker-registration
// admission. Every accepted address must be a bare host:port that embeds
// verbatim into the coordinator's dial URLs; every rejection must wrap
// ErrBadAddr.
func FuzzWorkerRegister(f *testing.F) {
	f.Add([]byte(`{"addr":"127.0.0.1:8081"}`))
	f.Add([]byte(`{"addr":"[::1]:8081"}`))
	f.Add([]byte(`{"addr":"worker-3.fleet.internal:443"}`))
	f.Add([]byte(`{"addr":""}`))
	f.Add([]byte(`{"addr":"localhost"}`))
	f.Add([]byte(`{"addr":"localhost:0"}`))
	f.Add([]byte(`{"addr":"localhost:999999"}`))
	f.Add([]byte(`{"addr":"localhost:abc"}`))
	f.Add([]byte(`{"addr":"http://localhost:8081"}`))
	f.Add([]byte(`{"addr":"host:80/path"}`))
	f.Add([]byte(`{"addr":"host name:80"}`))
	f.Add([]byte("{\"addr\":\"host\\n:80\"}"))
	f.Add([]byte(`{"addr":":8080"}`))
	f.Add([]byte(`{"unknown":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req RegisterRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		err := req.Validate()
		if err != nil {
			if !errors.Is(err, ErrBadAddr) {
				t.Fatalf("rejection is not typed ErrBadAddr: %v", err)
			}
			return
		}
		host, port, sperr := net.SplitHostPort(req.Addr)
		if sperr != nil || host == "" || port == "" {
			t.Fatalf("accepted addr %q does not split cleanly: %v", req.Addr, sperr)
		}
		u, uerr := url.Parse("http://" + req.Addr + "/v1/lease")
		if uerr != nil {
			t.Fatalf("accepted addr %q does not embed in a URL: %v", req.Addr, uerr)
		}
		if u.Host != req.Addr {
			t.Fatalf("accepted addr %q parses to URL host %q", req.Addr, u.Host)
		}
		if u.Path != "/v1/lease" {
			t.Fatalf("accepted addr %q smuggles a path: %q", req.Addr, u.Path)
		}
	})
}
