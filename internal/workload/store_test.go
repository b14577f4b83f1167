package workload

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"testing"

	"softerror/internal/isa"
)

// storeStream decodes body correct-path instructions and a quarter as
// many wrong-path draws, as a batch would.
func storeStream(sh *Shared, body int) {
	sh.BodyPrefix(body)
	sh.Wrong(body/4 - 1)
}

// TestStoreCheckout pins the store's sharing rules: a released stream is a
// hit for the next checkout of its Params, a busy one makes a concurrent
// checkout decode a private copy that Release drops, and the counters see
// every decode.
func TestStoreCheckout(t *testing.T) {
	const body = 2000
	st := NewStore(1 << 30)
	p := Default()
	a, err := st.Checkout(p, body, body/4)
	if err != nil {
		t.Fatal(err)
	}
	storeStream(a, body)
	b, err := st.Checkout(p, body, body/4)
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("a busy stream was handed out twice")
	}
	storeStream(b, body)
	kept := st.Bytes()
	if want := a.capBytes(); kept != want {
		t.Errorf("store keeps %d bytes, want the first stream's %d (private copies are not kept)", kept, want)
	}
	st.Release(b)
	st.Release(a)
	if st.Bytes() != kept {
		t.Errorf("releasing changed the kept bytes from %d to %d", kept, st.Bytes())
	}
	c, err := st.Checkout(p, body, body/4)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("the next checkout did not find the released stream")
	}
	st.Release(c)
	if d, h := st.Decodes(), st.Hits(); d != 2 || h != 1 {
		t.Errorf("decodes, hits = %d, %d; want 2, 1", d, h)
	}

	bad := p
	bad.BranchPredictor = "gshare"
	if _, err := st.Checkout(bad, body, 0); err == nil {
		t.Error("a PC-indexed workload checked out")
	}
}

// TestStoreConcurrentCheckout runs many goroutines over two workloads'
// streams under -race: each holder has its stream to itself, and every
// copy, kept or private, decodes the same instructions.
func TestStoreConcurrentCheckout(t *testing.T) {
	const body = 1500
	st := NewStore(1 << 30)
	var ps [2]Params
	for i := range ps {
		ps[i] = Default()
		ps[i].Seed = uint64(i + 1)
	}
	var want [2][]isa.Inst
	for i, p := range ps {
		sh, err := NewShared(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sh.BodyPrefix(body)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines) // each goroutine stops at its first failure
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				i := (g + k) % 2
				sh, err := st.Checkout(ps[i], body, 0)
				if err != nil {
					errs <- err.Error()
					return
				}
				same := slices.Equal(sh.BodyPrefix(body), want[i])
				st.Release(sh)
				if !same {
					errs <- "a checked-out stream differs from a fresh decode"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n := st.Decodes() + st.Hits(); n != 4*goroutines {
		t.Errorf("decodes + hits = %d, want one per checkout (%d)", n, 4*goroutines)
	}
}

// TestStoreEvictionRecycles pins that eviction feeds the next decode: a
// store with room for one stream, alternating two workloads, decodes each
// switch into the arrays of the stream it evicts instead of allocating
// fresh memos.
func TestStoreEvictionRecycles(t *testing.T) {
	const body = 50_000
	memo := int64(body+body/4) * instBytes
	st := NewStore(memo * 3 / 2)
	var ps [2]Params
	for i := range ps {
		ps[i] = Default()
		ps[i].Seed = uint64(i + 1)
	}
	decode := func(p Params) {
		sh, err := st.Checkout(p, body, body/4)
		if err != nil {
			t.Fatal(err)
		}
		storeStream(sh, body)
		st.Release(sh)
	}
	decode(ps[0]) // warm-up: the first decode allocates
	const switches = 6
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= switches; i++ {
		decode(ps[i%2])
	}
	runtime.ReadMemStats(&after)
	if st.Decodes() != switches+1 {
		t.Fatalf("%d decodes, want every switch to miss", st.Decodes())
	}
	if perSwitch := int64(after.TotalAlloc-before.TotalAlloc) / switches; perSwitch > memo/4 {
		t.Errorf("a switch allocates %d bytes, want under a quarter of the %d-byte memo", perSwitch, memo)
	}
	if b := st.Bytes(); b > st.Budget() {
		t.Errorf("store keeps %d bytes, budget %d", b, st.Budget())
	}
}

// TestStoreOverBudgetStream: a stream larger than the whole budget is
// served, and dropped on release.
func TestStoreOverBudgetStream(t *testing.T) {
	const body = 4000
	st := NewStore(int64(body) * instBytes / 2)
	sh, err := st.Checkout(Default(), body, 0)
	if err != nil {
		t.Fatal(err)
	}
	storeStream(sh, body)
	st.Release(sh)
	if b := st.Bytes(); b != 0 {
		t.Errorf("store keeps %d bytes of a stream over its budget", b)
	}
}

// TestStoreSoak pushes 200 distinct workloads through a small store and
// pins that the live heap stays flat at the budget: eviction keeps the
// kept streams within it, and recycling keeps the evicted ones from
// piling up as garbage between collections.
func TestStoreSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const (
		body     = 4000
		distinct = 200
	)
	memo := int64(body+body/4) * instBytes
	budget := 6 * memo
	st := NewStore(budget)
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := func() int64 {
		runtime.GC()
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	base := live()
	var peak int64
	for i := 0; i < distinct; i++ {
		p := Default()
		p.Seed = uint64(1000 + i)
		sh, err := st.Checkout(p, body, body/4)
		if err != nil {
			t.Fatal(err)
		}
		storeStream(sh, body)
		st.Release(sh)
		if b := st.Bytes(); b > budget {
			t.Fatalf("after workload %d the store keeps %d bytes, budget %d", i, b, budget)
		}
		if i%20 == 19 {
			peak = max(peak, live()-base)
		}
	}
	// The kept streams, their generators and one stream in flight.
	if limit := budget + 2*memo; peak > limit {
		t.Errorf("live heap grew by %d bytes over %d workloads, want under %d", peak, distinct, limit)
	}
	if st.Decodes() != distinct {
		t.Errorf("%d decodes of %d distinct workloads", st.Decodes(), distinct)
	}
}
