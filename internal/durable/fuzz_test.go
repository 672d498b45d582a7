package durable_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"sdnshield/internal/durable"
)

// frameOf is the log's frame layout, written out independently of the
// package: u32le length, u32le CRC-32 (IEEE), body.
func frameOf(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// FuzzLogReplay: whatever follows the header, OpenLog never panics and
// returns only whole, CRC-valid frames — re-framed, they are a prefix of
// the file — and a frame appended after reopening replays after them.
func FuzzLogReplay(f *testing.F) {
	const magic = "fuzzlog1\n"
	two := frameOf(frameOf(nil, []byte("first")), []byte("second"))
	f.Add([]byte{})
	f.Add(two)
	f.Add(append(append([]byte{}, two...), 0xff, 0, 0, 0, 1, 2, 3))        // torn tail
	f.Add(append(frameOf(nil, []byte("x")), 0xff, 0xff, 0xff, 0xff, 0, 0)) // giant length
	corrupt := append([]byte{}, two...)
	corrupt[len(corrupt)-1] ^= 1
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "log")
		file := append([]byte(magic), tail...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		l, bodies, err := durable.OpenLog(path, magic)
		if err != nil {
			t.Fatal(err)
		}
		whole := []byte(magic)
		for _, b := range bodies {
			whole = frameOf(whole, b)
		}
		if !bytes.HasPrefix(file, whole) {
			t.Fatalf("replayed frames are not a prefix of the file")
		}
		if err := l.Append([]byte("new")); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, again, err := durable.OpenLog(path, magic)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		want := append(append([][]byte{}, bodies...), []byte("new"))
		if len(again) != len(want) {
			t.Fatalf("reopen replayed %d frames, want %d", len(again), len(want))
		}
		for i := range want {
			if !bytes.Equal(again[i], want[i]) {
				t.Fatalf("frame %d = %q, want %q", i, again[i], want[i])
			}
		}
	})
}
