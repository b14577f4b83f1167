package bpred

import (
	"math"
	"strings"
	"testing"

	"softerror/internal/rng"
)

func TestCounterSaturates(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.train(false)
	}
	if c != 0 {
		t.Fatalf("counter under-saturated to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.train(true)
	}
	if c != 3 {
		t.Fatalf("counter over-saturated to %d", c)
	}
	if !c.taken() {
		t.Fatal("saturated-taken counter predicts not-taken")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(10)
	pc := uint64(0x4000)
	// Always-taken branch: after warm-up, never mispredicted.
	for i := 0; i < 4; i++ {
		b.Mispredict(pc, true)
	}
	for i := 0; i < 100; i++ {
		if b.Mispredict(pc, true) {
			t.Fatalf("bimodal mispredicted stable branch at iteration %d", i)
		}
	}
}

func TestBimodalAlternatingWorstCase(t *testing.T) {
	b := NewBimodal(10)
	pc := uint64(0x4000)
	mis := 0
	for i := 0; i < 1000; i++ {
		if b.Mispredict(pc, i%2 == 0) {
			mis++
		}
	}
	// An alternating branch defeats a bimodal predictor badly.
	if mis < 400 {
		t.Fatalf("alternating branch mispredicted only %d/1000 times", mis)
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	g := NewGshare(12, 8)
	pc := uint64(0x8000)
	// A period-4 pattern is capturable with history; after training the
	// misprediction rate must collapse.
	pattern := []bool{true, true, false, true}
	for i := 0; i < 2000; i++ {
		g.Mispredict(pc, pattern[i%len(pattern)])
	}
	mis := 0
	for i := 0; i < 2000; i++ {
		if g.Mispredict(pc, pattern[i%len(pattern)]) {
			mis++
		}
	}
	if rate := float64(mis) / 2000; rate > 0.05 {
		t.Fatalf("gshare failed to learn period-4 pattern: mispredict rate %.3f", rate)
	}
}

func TestGshareBeatsBimodalOnPattern(t *testing.T) {
	b := NewBimodal(12)
	g := NewGshare(12, 8)
	pc := uint64(0x1000)
	pattern := []bool{true, false, false, true, false}
	misB, misG := 0, 0
	for i := 0; i < 5000; i++ {
		taken := pattern[i%len(pattern)]
		if b.Mispredict(pc, taken) {
			misB++
		}
		if g.Mispredict(pc, taken) {
			misG++
		}
	}
	if misG >= misB {
		t.Fatalf("gshare (%d) should beat bimodal (%d) on a periodic pattern", misG, misB)
	}
}

func TestStatisticalRate(t *testing.T) {
	s := rng.New(11, 0)
	m := NewStatistical(0.07, s)
	mis := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if m.Mispredict(uint64(i*4), i%3 == 0) {
			mis++
		}
	}
	rate := float64(mis) / n
	if math.Abs(rate-0.07) > 0.005 {
		t.Fatalf("statistical rate = %.4f, want ~0.07", rate)
	}
}

func TestStatisticalEdgeRates(t *testing.T) {
	s := rng.New(1, 1)
	never := NewStatistical(0, s)
	always := NewStatistical(1, s)
	for i := 0; i < 100; i++ {
		if never.Mispredict(0, true) {
			t.Fatal("rate-0 model mispredicted")
		}
		if !always.Mispredict(0, false) {
			t.Fatal("rate-1 model predicted correctly")
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bimodal0":   func() { NewBimodal(0) },
		"bimodal25":  func() { NewBimodal(25) },
		"gshare-t0":  func() { NewGshare(0, 8) },
		"gshare-h0":  func() { NewGshare(10, 0) },
		"gshare-h33": func() { NewGshare(10, 33) },
		"stat-neg":   func() { NewStatistical(-0.1, rng.New(1, 1)) },
		"stat-over":  func() { NewStatistical(1.1, rng.New(1, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNames(t *testing.T) {
	if !strings.HasPrefix(NewBimodal(4).Name(), "bimodal") {
		t.Error("bimodal name")
	}
	if !strings.HasPrefix(NewGshare(4, 4).Name(), "gshare") {
		t.Error("gshare name")
	}
	if !strings.HasPrefix(NewStatistical(0.5, rng.New(1, 1)).Name(), "statistical") {
		t.Error("statistical name")
	}
}
