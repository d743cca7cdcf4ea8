// Package checkpoint is the checkpoint file format: a versioned,
// self-describing envelope around one State, the complete dynamic state
// of a simulation at a cycle boundary, with the guarantee that a run
// restored from a snapshot taken at cycle k finishes bit-identical to the
// uninterrupted run.
//
// Each section of State is declared by the package whose state it holds,
// beside the Snapshot method that fills it and the Restore method that
// lays it back: router (the fabric), traffic (the injection source),
// stats (the collector), topology (fault-mutable group membership) and
// fault (the fault engine). Packets are interned once in a packet.Table.
// This package knows none of their internals; it frames, validates and
// writes the encoded State.
//
// File layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "CHPLCKPT"
//	8       4     format version (uint32)
//	12      8     payload length (uint64)
//	20      n     payload: gob-encoded checkpoint.State
//	20+n    4     CRC-32 (IEEE) of the payload
//
// The header is validated before the payload is decoded, so a truncated,
// corrupted, or version-skewed file is rejected with a typed error
// (ErrNotCheckpoint, ErrVersion, ErrCorrupt) and never a panic. A State
// that decodes but does not fit the system rebuilt from its embedded
// configuration is ErrMismatch, raised in one place by the module root's
// ResumeRun. Writes go through a temporary file in the destination
// directory followed by an atomic rename, so a crash mid-write never
// leaves a half-written checkpoint under the target name.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"chipletnet/internal/fault"
	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/stats"
	"chipletnet/internal/topology"
	"chipletnet/internal/traffic"
)

// Version is the current checkpoint format version. It changes whenever
// the State schema changes incompatibly; there is no cross-version
// migration — a version-skewed file is rejected with ErrVersion and the
// run must be redone from the start (checkpoints are derived artifacts,
// never the only copy of anything).
const Version uint32 = 1

// State is the complete dynamic state of one simulation at a cycle
// boundary: everything Simulate touches between cycles, captured so that a
// run restored from it finishes bit-identical to the uninterrupted run.
// Structural state (topology wiring, routing tables, traffic patterns) is
// NOT stored — it is rebuilt deterministically from the embedded Config —
// only the mutable state layered on top of it is.
type State struct {
	// Config is the root-package Config, JSON-encoded (this package
	// cannot import the root package). Resume rebuilds the system from
	// it, so a snapshot is self-contained.
	Config []byte
	// Cycle is the last completed simulation cycle; resume continues at
	// Cycle+1.
	Cycle int64

	// Packets is the table of every packet referenced anywhere in the
	// snapshot (buffers, wires, replay windows), serialized once each;
	// all other sections reference packets by table index. Storing
	// packet.Packet itself checkpoints every field it has.
	Packets []packet.Packet

	Fabric router.FabricState
	Gen    traffic.GeneratorState
	Stats  stats.CollectorState
	Topo   topology.TopoState
	// Fault is nil when the run has no fault engine.
	Fault *fault.FaultState
}

// magic identifies a chiplet-simulator checkpoint file.
var magic = [8]byte{'C', 'H', 'P', 'L', 'C', 'K', 'P', 'T'}

// Typed sentinel errors, matchable with errors.Is.
var (
	// ErrNotCheckpoint: the file does not begin with the checkpoint magic.
	ErrNotCheckpoint = errors.New("checkpoint: not a checkpoint file")
	// ErrVersion: the file is a checkpoint, but of an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrCorrupt: the file is damaged — truncated, failing its CRC, or
	// undecodable.
	ErrCorrupt = errors.New("checkpoint: corrupt file")
	// ErrMismatch: the snapshot decoded but does not fit the system being
	// restored (e.g. it references structure the rebuilt topology lacks).
	// The layers' Restore methods return plain errors; ResumeRun wraps
	// every restore failure in ErrMismatch.
	ErrMismatch = errors.New("checkpoint: snapshot does not match configuration")
)

// Encode serializes st into the checkpoint wire format.
func Encode(st *State) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	buf := make([]byte, 0, 20+payload.Len()+4)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload.Len()))
	buf = append(buf, payload.Bytes()...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload.Bytes()))
	return buf, nil
}

// Decode parses checkpoint wire bytes, validating magic, version, length,
// and CRC before touching the payload.
func Decode(data []byte) (*State, error) {
	if len(data) < 20 || !bytes.Equal(data[:8], magic[:]) {
		return nil, ErrNotCheckpoint
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, supported version %d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint64(data[12:20])
	if n > uint64(len(data)) || uint64(len(data))-n < 24 {
		return nil, fmt.Errorf("%w: truncated (payload length %d, file length %d)",
			ErrCorrupt, n, len(data))
	}
	payload := data[20 : 20+n]
	want := binary.LittleEndian.Uint32(data[20+n : 24+n])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (computed %08x, stored %08x)", ErrCorrupt, got, want)
	}
	st := new(State)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, fmt.Errorf("%w: payload decode: %v", ErrCorrupt, err)
	}
	return st, nil
}

// WriteFile atomically writes st as a checkpoint file at path: the bytes
// go to a temporary file in the same directory, are synced, and the file
// is renamed over path, so readers see either the old checkpoint or the
// complete new one, never a partial write.
func WriteFile(path string, st *State) error {
	data, err := Encode(st)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// ReadFile loads and validates a checkpoint file.
func ReadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}
