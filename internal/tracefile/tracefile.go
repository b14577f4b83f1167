// Package tracefile persists pipeline traces to disk so that expensive
// simulations can be analysed repeatedly — different protection schemes,
// tracking levels, PET sizes, fault-injection campaigns — without
// re-running the machine model. Files are gob-encoded and gzip-compressed,
// with a versioned header so stale files fail loudly instead of decoding
// garbage.
package tracefile

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"softerror/internal/pipeline"
)

// magic identifies a trace file; version gates the gob schema. Version 2
// moved the run counters into the embedded pipeline.Stats: gob matches
// fields by name, so a version-1 body would decode with every counter
// silently zero.
const (
	magic   = "softerror-trace"
	version = 2
)

type header struct {
	Magic   string
	Version int
}

// Write serialises a trace to w.
func Write(w io.Writer, tr *pipeline.Trace) error {
	if tr == nil {
		return fmt.Errorf("tracefile: nil trace")
	}
	zw := gzip.NewWriter(w)
	enc := gob.NewEncoder(zw)
	if err := enc.Encode(header{Magic: magic, Version: version}); err != nil {
		return fmt.Errorf("tracefile: encode header: %w", err)
	}
	if err := enc.Encode(tr); err != nil {
		return fmt.Errorf("tracefile: encode trace: %w", err)
	}
	return zw.Close()
}

// Read deserialises a trace from r, validating the header.
func Read(r io.Reader) (*pipeline.Trace, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("tracefile: not a trace file (gzip): %w", err)
	}
	defer zr.Close()
	dec := gob.NewDecoder(zr)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("tracefile: decode header: %w", err)
	}
	if h.Magic != magic {
		return nil, fmt.Errorf("tracefile: bad magic %q", h.Magic)
	}
	if h.Version != version {
		return nil, fmt.Errorf("tracefile: version %d, this build reads %d", h.Version, version)
	}
	var tr pipeline.Trace
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("tracefile: decode trace: %w", err)
	}
	return &tr, nil
}

// Save writes a trace to path, creating or truncating the file.
func Save(path string, tr *pipeline.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := Write(bw, tr); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a trace from path.
func Load(path string) (*pipeline.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}
