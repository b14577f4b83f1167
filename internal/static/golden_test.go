package static_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"softerror/internal/core"
	"softerror/internal/pipeline"
	"softerror/internal/spec"
	"softerror/internal/static"
	"softerror/internal/workload"
)

// boundsGolden holds, per benchmark, the digest of every Bounds field over
// goldenConfigs at goldenCommits. The constants were computed before the
// analyzer's views read deadness by body position; soundness tests only
// notice a bound that drops below the simulation, so this is the test that
// notices a bound that moved at all.
var boundsGolden = map[string]uint64{
	"mcf":          0xefdb0167ef1bf691,
	"gzip-graphic": 0x7d8a3cc1c49e70bb,
	"ammp":         0x7e888fe7144200f2,
	"twolf":        0x49b10bd2057cf415,
}

const goldenCommits = 20_000

// goldenConfigs is in-order baseline, in-order squash-L1 and out-of-order
// baseline, each at IQ 16 and 64.
func goldenConfigs() []pipeline.Config {
	var cfgs []pipeline.Config
	for _, v := range []struct {
		pol core.Policy
		ooo bool
	}{{core.PolicyBaseline, false}, {core.PolicySquashL1, false}, {core.PolicyBaseline, true}} {
		for _, iq := range []int{16, 64} {
			cfg := pipeline.DefaultConfig()
			v.pol.Apply(&cfg)
			cfg.IQSize = iq
			cfg.OutOfOrder = v.ooo
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// hashValue folds every numeric field of v into h, floats as their bit
// patterns, walking nested structs and arrays in declaration order.
func hashValue(h hash.Hash64, v reflect.Value) {
	var buf [8]byte
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
		return
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
		return
	case reflect.Float64:
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
	case reflect.Uint64:
		binary.LittleEndian.PutUint64(buf[:], v.Uint())
	default:
		panic(fmt.Sprintf("hashValue: unhandled kind %s", v.Kind()))
	}
	h.Write(buf[:])
}

// TestQueryGolden pins the analyzer's bounds bit for bit on four roster
// benchmarks across both core families, a squash policy and two IQ sizes.
func TestQueryGolden(t *testing.T) {
	cfgs := goldenConfigs()
	for name, want := range boundsGolden {
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("no roster benchmark %q", name)
		}
		sh, err := workload.NewShared(b.Params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a := static.NewAnalyzer()
		a.Load(sh.BodyPrefix(goldenCommits+static.BodySlack), goldenCommits)
		h := fnv.New64a()
		for _, cfg := range cfgs {
			hashValue(h, reflect.ValueOf(a.Query(cfg)))
		}
		if got := h.Sum64(); got != want {
			t.Errorf("%s: bounds digest %#x, want %#x", name, got, want)
		}
	}
}
