package pibit

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// TestSealRestoresProgramOrder appends a log in a shuffled order, keyed by
// Seq, and requires the sealed index to equal NewIndex's over the log in
// program order. It also pins the per-position record: a 10-byte op and
// an 8-byte address.
func TestSealRestoresProgramOrder(t *testing.T) {
	if got := unsafe.Sizeof(op{}); got != 10 {
		t.Errorf("op is %d bytes, want 10", got)
	}
	r := rand.New(rand.NewSource(1))
	data := make([]byte, 5*1000)
	r.Read(data)
	log := decodePiLog(data)
	want := NewIndex(log)

	var got Index
	keys := make([]uint64, 0, len(log))
	for _, i := range r.Perm(len(log)) {
		got.Append(&log[i])
		keys = append(keys, log[i].Seq)
	}
	got.Seal(keys)
	if !reflect.DeepEqual(&got, want) {
		t.Fatal("sealed shuffled index differs from NewIndex over the program-order log")
	}
	for i, k := range keys {
		if k != log[i].Seq {
			t.Fatalf("key %d is %d after Seal, want %d", i, k, log[i].Seq)
		}
	}
}
