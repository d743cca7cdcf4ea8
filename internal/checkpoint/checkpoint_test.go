package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chipletnet/internal/packet"
)

func sampleState() *State {
	return &State{
		Config:  []byte(`{"Seed":7}`),
		Cycle:   42,
		Packets: []packet.Packet{{ID: 1, Src: 2, Dst: 3, Len: 4}, {ID: 9, Measured: true}},
	}
}

// TestDecodeRejectsDamage: every damaged or foreign input is a typed
// error, never a panic.
func TestDecodeRejectsDamage(t *testing.T) {
	good, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	// withPayload frames payload under a valid header and CRC.
	withPayload := func(payload []byte) []byte {
		b := append([]byte(nil), good[:12]...)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
		b = append(b, payload...)
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrNotCheckpoint},
		{"short", good[:19], ErrNotCheckpoint},
		{"bad magic", edit(func(b []byte) []byte { b[0] = 'X'; return b }), ErrNotCheckpoint},
		{"other version", edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], Version+1)
			return b
		}), ErrVersion},
		{"length past EOF", edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:20], uint64(len(b)))
			return b
		}), ErrCorrupt},
		{"huge length", edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:20], ^uint64(0))
			return b
		}), ErrCorrupt},
		{"truncated", good[:len(good)-1], ErrCorrupt},
		{"flipped CRC byte", edit(func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }), ErrCorrupt},
		{"flipped payload byte", edit(func(b []byte) []byte { b[20] ^= 0xff; return b }), ErrCorrupt},
		{"gob garbage", withPayload([]byte("definitely not gob")), ErrCorrupt},
		{"empty payload", withPayload(nil), ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Decode(tc.data)
			if !errors.Is(err, tc.want) {
				t.Errorf("Decode = %v, want %v", err, tc.want)
			}
			if st != nil {
				t.Errorf("Decode returned a state alongside %v", err)
			}
		})
	}
	if st, err := Decode(good); err != nil || !reflect.DeepEqual(st, sampleState()) {
		t.Errorf("round trip = %+v, %v", st, err)
	}
}

// TestWriteFileAtomic: WriteFile round-trips through ReadFile, replaces
// an existing checkpoint and leaves no temporary file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	for cycle := int64(1); cycle <= 2; cycle++ {
		st := sampleState()
		st.Cycle = cycle
		if err := WriteFile(path, st); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil || got.Cycle != cycle {
			t.Fatalf("ReadFile after write %d = %+v, %v", cycle, got, err)
		}
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) > 0 {
		t.Errorf("temporary files left behind: %v", tmp)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the checkpoint", len(entries))
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("ReadFile of a missing file succeeded")
	}
}
