package meshio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"eul3d/internal/meshgen"
)

// Decoders bound every count a header declares by the bytes that follow
// it. Each crafted input below is a few dozen bytes whose header asks for
// gigabytes; without the bound, each one kills the process with a fatal
// out-of-memory error, which Go cannot recover from.

// craftedCheckpoint is a well-formed, CRC-valid record header claiming
// four billion cycles with nothing behind it.
func craftedCheckpoint() []byte {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	binary.Write(&buf, binary.LittleEndian, ckptHeader{Cycle: 4e9})
	return binary.LittleEndian.AppendUint32(buf.Bytes(), crc32.ChecksumIEEE(buf.Bytes()))
}

// craftedMesh is a 32-byte mesh blob claiming 2³¹ vertices and 2³¹ tets.
func craftedMesh() []byte {
	b := []byte(meshMagic)
	for _, n := range []uint64{1 << 31, 1 << 31, 0} {
		b = binary.LittleEndian.AppendUint64(b, n)
	}
	return b
}

func TestDecodersBoundHeaderCounts(t *testing.T) {
	sol := []byte(solMagic)
	sol = binary.LittleEndian.AppendUint64(sol, 0) // mach
	sol = binary.LittleEndian.AppendUint64(sol, 0) // alpha
	sol = binary.LittleEndian.AppendUint64(sol, 1<<31)

	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"checkpoint", func() error { _, err := DecodeCheckpoint(craftedCheckpoint()); return err }},
		{"mesh", func() error { _, err := DecodeMesh(craftedMesh()); return err }},
		{"solution", func() error { _, _, _, err := DecodeSolution(sol); return err }},
	} {
		if err := c.decode(); err == nil || !strings.Contains(err.Error(), "meshio:") {
			t.Errorf("%s: crafted header gave %v, want a meshio error", c.name, err)
		}
	}
}

// sampleAdaptive is a record of an adaptive run past its first epoch: its
// solution lives on a refined mesh named by hash.
func sampleAdaptive() *Checkpoint {
	ck := sampleCheckpoint()
	ck.Mesh = strings.Repeat("0123456789abcdef", 4)
	ck.Epochs, ck.SinceEpoch, ck.StepsLeft, ck.CellsRefined, ck.Dt = 1, 2, 117, 1410, 5.6e-4
	return ck
}

// fuzzSeeds are record bodies (a record without its CRC trailer) and mesh
// blobs, valid and crafted; both fuzzers start from all of them.
func fuzzSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	for _, ck := range []*Checkpoint{sampleCheckpoint(), sampleAdaptive()} {
		raw, err := EncodeCheckpoint(ck)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw[:len(raw)-4])
	}
	crafted := craftedCheckpoint()
	seeds = append(seeds, crafted[:len(crafted)-4], craftedMesh())
	m, err := meshgen.Channel(meshgen.DefaultChannel(2, 1, 1, 3))
	if err != nil {
		f.Fatal(err)
	}
	blob, err := EncodeMesh(m)
	if err != nil {
		f.Fatal(err)
	}
	return append(seeds, blob)
}

// FuzzCheckpointDecode feeds the decoder record bodies with a valid CRC
// trailer appended, so mutations reach the header and payload checks
// rather than stopping at the CRC. A body either fails with an error or
// decodes to a record that encodes back to exactly the same bytes: the
// format has one encoding per record.
func FuzzCheckpointDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		ck, err := DecodeCheckpoint(raw)
		if err != nil {
			return
		}
		again, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("decoded record does not encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("decoded record re-encodes to different bytes")
		}
	})
}

// FuzzMeshDecode: arbitrary bytes either fail with an error or decode to a
// finished mesh whose encoding the input starts with.
func FuzzMeshDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMesh(b)
		if err != nil {
			return
		}
		again, err := EncodeMesh(m)
		if err != nil {
			t.Fatalf("decoded mesh does not encode: %v", err)
		}
		if !bytes.HasPrefix(b, again) {
			t.Fatalf("decoded mesh re-encodes to different bytes")
		}
	})
}

func TestCheckpointAdaptiveRoundTrip(t *testing.T) {
	ck := sampleAdaptive()
	raw, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mesh != ck.Mesh || got.Epochs != ck.Epochs || got.SinceEpoch != ck.SinceEpoch ||
		got.StepsLeft != ck.StepsLeft || got.CellsRefined != ck.CellsRefined || got.Dt != ck.Dt {
		t.Fatalf("adaptive fields differ: %+v vs %+v", got, ck)
	}

	bad := sampleAdaptive()
	bad.Mesh = "not-a-hash"
	if _, err := EncodeCheckpoint(bad); err == nil {
		t.Error("encoded a record naming its mesh by something other than a hash")
	}
}

// A record in an earlier format is refused with the migration rule, not
// decoded.
func TestCheckpointRejectsEarlierFormat(t *testing.T) {
	raw, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte("EUL3DK01"), raw[len(ckptMagic):len(raw)-4]...)
	old := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	_, err = DecodeCheckpoint(old)
	if err == nil || !strings.Contains(err.Error(), "drain before upgrading") {
		t.Fatalf("earlier-format record gave %v, want the drain-before-upgrading error", err)
	}
}
