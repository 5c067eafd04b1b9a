package core

import (
	"testing"
	"unsafe"
)

// TestDirEntrySize pins a directory entry at 96 bytes: the L2 data
// block lives in the slice's word store, sized to the region, so an
// entry carries no words of its own. A 16-word block back inline
// would take it to 224 bytes.
func TestDirEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(dirEntry{}); n != 96 {
		t.Errorf("dirEntry is %d bytes, want 96", n)
	}
}

// TestMsgSize pins a message at 88 bytes: its payload values sit
// behind a pointer that only a machine with armed values fills, so
// the pool's messages and freeMsg's zeroing carry no 128-byte word
// array. The array back inline would take it to 208 bytes.
func TestMsgSize(t *testing.T) {
	if n := unsafe.Sizeof(Msg{}); n != 88 {
		t.Errorf("Msg is %d bytes, want 88", n)
	}
}
