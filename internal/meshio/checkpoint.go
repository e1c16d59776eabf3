package meshio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"strings"

	"eul3d/internal/euler"
	"eul3d/internal/store"
)

// ckptMagic names the record format. A record in an earlier format is
// refused, not converted: there is one decoder.
const ckptMagic = "EUL3DK02"

// Checkpoint is a run's resume point — the one record a drain, a periodic
// checkpoint, a cluster handoff and an adaptive epoch all write: the
// fine-grid solution plus everything needed to make a resumed run
// indistinguishable from an uninterrupted one — the cycle count, the full
// residual history, the CFL in force (which the divergence watchdog may
// have lowered below its initial value), the mesh the solution lives on and
// the adaptive driver's counters.
type Checkpoint struct {
	Cycle    int
	Mach     float64
	AlphaDeg float64
	CFL      float64
	History  []float64
	Sol      []euler.State

	// Mesh is the artifact-store hash of the mesh Sol lives on; "" means
	// the run's own mesh (a job's spec mesh, the command line's). Only an
	// adaptive run that has refined names one.
	Mesh string

	// The adaptive driver's counters, zero for every other run: epochs
	// done, steps since the last epoch (or the start), steps left, the
	// global time step in force (0 on steady runs) and cells added so far.
	Epochs, SinceEpoch, StepsLeft, CellsRefined int
	Dt                                          float64
}

// ckptHeader is the fixed-size head of a record, after the magic; the
// history (Cycle float64s) and the solution (NSol states) follow it.
type ckptHeader struct {
	Cycle, NSol                                 int64
	Epochs, SinceEpoch, StepsLeft, CellsRefined int64
	Mach, AlphaDeg, CFL, Dt                     float64
	Mesh                                        [64]byte // zero for ""
}

// EncodeCheckpoint serializes a checkpoint with a CRC32 (IEEE) trailer
// over every preceding byte, so torn or bit-rotted files are rejected on
// load.
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	if len(ck.History) != ck.Cycle {
		return nil, fmt.Errorf("meshio: checkpoint at cycle %d has %d history entries", ck.Cycle, len(ck.History))
	}
	if ck.Mesh != "" && !store.ValidHash(ck.Mesh) {
		return nil, fmt.Errorf("meshio: checkpoint names mesh %q, not an artifact hash", ck.Mesh)
	}
	hdr := ckptHeader{
		Cycle: int64(ck.Cycle), NSol: int64(len(ck.Sol)),
		Epochs: int64(ck.Epochs), SinceEpoch: int64(ck.SinceEpoch),
		StepsLeft: int64(ck.StepsLeft), CellsRefined: int64(ck.CellsRefined),
		Mach: ck.Mach, AlphaDeg: ck.AlphaDeg, CFL: ck.CFL, Dt: ck.Dt,
	}
	copy(hdr.Mesh[:], ck.Mesh)
	buf := bytes.NewBuffer(make([]byte, 0, len(ckptMagic)+binary.Size(hdr)+8*len(ck.History)+stateBytes*len(ck.Sol)+4))
	buf.WriteString(ckptMagic)
	for _, v := range []any{&hdr, ck.History, ck.Sol} {
		if err := binary.Write(buf, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	return binary.LittleEndian.AppendUint32(buf.Bytes(), crc32.ChecksumIEEE(buf.Bytes())), nil
}

// DecodeCheckpoint deserializes and validates checkpoint bytes, verifying
// the CRC32 trailer before trusting any field and the header's counts
// against the bytes that follow it before allocating anything.
func DecodeCheckpoint(raw []byte) (*Checkpoint, error) {
	if len(raw) < len(ckptMagic)+4 {
		return nil, fmt.Errorf("meshio: truncated checkpoint (%d bytes)", len(raw))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("meshio: checkpoint CRC mismatch: computed %08x, trailer %08x", got, want)
	}
	if magic := string(body[:len(ckptMagic)]); magic != ckptMagic && strings.HasPrefix(magic, ckptMagic[:6]) {
		return nil, fmt.Errorf("meshio: checkpoint format %s is not this release's %s; drain before upgrading", magic, ckptMagic)
	}
	br := bytes.NewReader(body)
	if err := expectMagic(br, ckptMagic); err != nil {
		return nil, err
	}
	var hdr ckptHeader
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("meshio: checkpoint header: %w", err)
	}
	left := int64(br.Len())
	if hdr.Cycle < 0 || hdr.NSol < 0 || hdr.Cycle > left/8 || hdr.NSol > left/stateBytes ||
		hdr.Cycle*8+hdr.NSol*stateBytes != left {
		return nil, fmt.Errorf("meshio: checkpoint header claims %d cycles and %d states, %d bytes follow", hdr.Cycle, hdr.NSol, left)
	}
	if hdr.Epochs < 0 || hdr.SinceEpoch < 0 || hdr.StepsLeft < 0 || hdr.CellsRefined < 0 || !(hdr.Dt >= 0) || math.IsInf(hdr.Dt, 0) {
		return nil, fmt.Errorf("meshio: implausible adaptive counters in checkpoint header %+v", hdr)
	}
	ck := &Checkpoint{
		Cycle: int(hdr.Cycle), Mach: hdr.Mach, AlphaDeg: hdr.AlphaDeg, CFL: hdr.CFL,
		Epochs: int(hdr.Epochs), SinceEpoch: int(hdr.SinceEpoch), StepsLeft: int(hdr.StepsLeft),
		CellsRefined: int(hdr.CellsRefined), Dt: hdr.Dt,
		History: make([]float64, hdr.Cycle),
		Sol:     make([]euler.State, hdr.NSol),
	}
	if hdr.Mesh != [64]byte{} {
		if ck.Mesh = string(hdr.Mesh[:]); !store.ValidHash(ck.Mesh) {
			return nil, fmt.Errorf("meshio: checkpoint names mesh %q, not an artifact hash", ck.Mesh)
		}
	}
	if err := binary.Read(br, binary.LittleEndian, ck.History); err != nil {
		return nil, fmt.Errorf("meshio: checkpoint history: %w", err)
	}
	for i, v := range ck.History {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("meshio: checkpoint history entry %d is %g", i, v)
		}
	}
	if err := binary.Read(br, binary.LittleEndian, ck.Sol); err != nil {
		return nil, fmt.Errorf("meshio: checkpoint solution: %w", err)
	}
	for i := range ck.Sol {
		for k := 0; k < euler.NVar; k++ {
			if math.IsNaN(ck.Sol[i][k]) || math.IsInf(ck.Sol[i][k], 0) {
				return nil, fmt.Errorf("meshio: checkpoint solution vertex %d var %d is %g", i, k, ck.Sol[i][k])
			}
		}
		if ck.Sol[i][0] <= 0 {
			return nil, fmt.Errorf("meshio: checkpoint solution has unphysical density at vertex %d", i)
		}
	}
	return ck, nil
}

// SaveCheckpoint writes a checkpoint atomically: the bytes land in
// <path>.tmp, are fsynced, and only then renamed over path — a crash
// mid-write can never destroy the previous good checkpoint.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	b, err := EncodeCheckpoint(ck)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads and validates a checkpoint from path.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(b)
}
