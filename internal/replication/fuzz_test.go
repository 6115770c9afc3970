package replication

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"unsafe"
)

// hugeCountFrame is the 8-byte frame that used to end a backup: a record
// count of 2^32-1 under a valid CRC, which decodeBatch sized a slice by.
func hugeCountFrame() []byte {
	frame := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	return binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
}

func TestDecodeBatchBoundsCount(t *testing.T) {
	if recs, err := decodeBatch(hugeCountFrame()); err == nil {
		t.Fatalf("frame claiming 2^32-1 records decoded to %d", len(recs))
	}
	// A count the payload cannot hold is refused whether it is past the
	// bound (no allocation) or merely past the records present.
	frame := appendBatch(nil, sampleRecs()[:2])
	for _, count := range []uint32{3, uint32(len(frame)), 1 << 31} {
		payload := append([]byte(nil), frame[:len(frame)-4]...)
		binary.BigEndian.PutUint32(payload, count)
		if _, err := decodeBatch(binary.BigEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))); err == nil {
			t.Fatalf("frame of 2 records claiming %d decoded", count)
		}
	}
}

// inside reports whether inner's bytes are bytes of outer.
func inside(outer, inner []byte) bool {
	if len(inner) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(outer)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(inner)))
	return p >= lo && p+uintptr(len(inner)) <= lo+uintptr(len(outer))
}

// FuzzDecodeBatch feeds decodeBatch — the one decoder on the backup's side of
// the replication connection — arbitrary frames: it must answer with records
// or an error, never a panic or an allocation sized by the peer's word alone.
// Random bytes almost never carry a valid CRC, so each input is also tried as
// a payload under the CRC the decoder expects. Records that do decode must
// alias the frame, capacity clipped (Apply may not scribble past a body), and
// re-encode to exactly the bytes they came from.
func FuzzDecodeBatch(f *testing.F) {
	two := sampleRecs()[:2]
	for i := range two {
		two[i].Seq = uint64(i + 1)
	}
	f.Add(appendBatch(nil, two))
	f.Add(appendBatch(nil, nil))
	f.Add(hugeCountFrame())

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, binary.BigEndian.AppendUint32(append([]byte(nil), data...), crc32.ChecksumIEEE(data)))
	})
}

func checkDecode(t *testing.T, frame []byte) {
	recs, err := decodeBatch(frame)
	if err != nil {
		return
	}
	for i, r := range recs {
		if !inside(frame, r.Body) || !inside(frame, r.Reply) {
			t.Fatalf("record %d: body or reply lies outside the frame", i)
		}
		if cap(r.Body) != len(r.Body) || cap(r.Reply) != len(r.Reply) {
			t.Fatalf("record %d: body or reply capacity runs on into the frame", i)
		}
	}
	if again := appendBatch(nil, recs); !bytes.Equal(again, frame) {
		t.Fatalf("decoded batch re-encodes to %d bytes, frame was %d", len(again), len(frame))
	}
}
