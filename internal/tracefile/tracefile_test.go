package tracefile

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"path/filepath"
	"reflect"
	"testing"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

func sampleTrace(t testing.TB) *pipeline.Trace {
	t.Helper()
	gen := workload.MustNew(workload.Default())
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	p := pipeline.MustNew(pipeline.DefaultConfig(), gen, mem)
	return p.Run(5000, true)
}

func TestRoundTripInMemory(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("round-tripped trace differs")
	}
}

func TestSaveLoadFile(t *testing.T) {
	tr := sampleTrace(t)
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != tr.Cycles || got.Commits != tr.Commits ||
		len(got.Residencies) != len(tr.Residencies) ||
		len(got.CommitLog) != len(tr.CommitLog) {
		t.Fatal("loaded trace summary mismatch")
	}
}

func TestLoadedTraceAnalysesIdentically(t *testing.T) {
	// The point of persistence: analyses of the loaded trace match the
	// original exactly.
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ace.Analyze(tr), ace.Analyze(got)
	if a.SDCAVF() != b.SDCAVF() || a.DUEAVF() != b.DUEAVF() {
		t.Fatalf("AVFs differ after round trip: %v/%v vs %v/%v",
			a.SDCAVF(), a.DUEAVF(), b.SDCAVF(), b.DUEAVF())
	}
}

func TestRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid gzip, wrong magic.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	enc := gob.NewEncoder(zw)
	if err := enc.Encode(header{Magic: "something-else", Version: version}); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if _, err := Read(&buf); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Right magic, wrong version.
	buf.Reset()
	zw = gzip.NewWriter(&buf)
	enc = gob.NewEncoder(zw)
	if err := enc.Encode(header{Magic: magic, Version: version + 1}); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if _, err := Read(&buf); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestRejectsVersion1(t *testing.T) {
	// A version-1 body carries the counters as top-level Trace fields;
	// decoded into today's Trace they would all read zero.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	enc := gob.NewEncoder(zw)
	if err := enc.Encode(header{Magic: magic, Version: 1}); err != nil {
		t.Fatal(err)
	}
	v1 := struct {
		Cycles, Commits uint64
		IQSize          int
	}{Cycles: 1000, Commits: 800, IQSize: 64}
	if err := enc.Encode(v1); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if tr, err := Read(&buf); err == nil {
		t.Fatalf("version-1 file accepted (Cycles=%d)", tr.Cycles)
	}
}

func TestWriteNil(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.trace")); err == nil {
		t.Fatal("missing file accepted")
	}
}
