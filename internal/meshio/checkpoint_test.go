package meshio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
)

func sampleCheckpoint() *Checkpoint {
	g := euler.Air
	return &Checkpoint{
		Cycle:    3,
		Mach:     0.7,
		AlphaDeg: 1.5,
		CFL:      2.25,
		History:  []float64{1.0, 0.4, 0.17},
		Sol: []euler.State{
			g.Freestream(0.7, 1.5),
			g.FromPrimitive(1.2, 0.3, -0.1, 0.05, 0.8),
			g.FromPrimitive(0.9, -0.2, 0.1, 0.0, 1.1),
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	raw, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != ck.Cycle || got.Mach != ck.Mach || got.AlphaDeg != ck.AlphaDeg || got.CFL != ck.CFL {
		t.Fatalf("scalars differ: %+v vs %+v", got, ck)
	}
	for i := range ck.History {
		if got.History[i] != ck.History[i] {
			t.Fatalf("history[%d] = %v, want %v", i, got.History[i], ck.History[i])
		}
	}
	for i := range ck.Sol {
		if got.Sol[i] != ck.Sol[i] {
			t.Fatalf("sol[%d] = %v, want %v", i, got.Sol[i], ck.Sol[i])
		}
	}
}

func TestCheckpointWriteRejectsInconsistentHistory(t *testing.T) {
	ck := sampleCheckpoint()
	ck.History = ck.History[:1] // 1 entry for cycle 3
	if _, err := EncodeCheckpoint(ck); err == nil {
		t.Fatal("accepted checkpoint with history/cycle mismatch")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	good, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}

	// Any single flipped bit anywhere in the file must be caught by the
	// CRC trailer (or, for trailer flips, by the mismatch itself).
	for off := 0; off < len(good); off += 7 {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x10
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Errorf("bit flip at offset %d accepted", off)
		}
	}
	// Truncation at every length must error, never panic.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeCheckpoint(good[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestSaveCheckpointIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	ck := sampleCheckpoint()
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind after successful save")
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != ck.Cycle {
		t.Errorf("loaded cycle %d, want %d", got.Cycle, ck.Cycle)
	}

	// A failed save must not disturb the existing good checkpoint.
	bad := sampleCheckpoint()
	bad.History = bad.History[:1]
	if err := SaveCheckpoint(path, bad); err == nil {
		t.Fatal("inconsistent checkpoint saved successfully")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind after failed save")
	}
	if again, err := LoadCheckpoint(path); err != nil || again.Cycle != ck.Cycle {
		t.Errorf("previous checkpoint damaged by failed save: %v", err)
	}
}

// TestLoaderFuzzRegression drives every binary loader over systematically
// damaged inputs: truncation at every prefix length and a sweep of byte
// flips. Loaders must return a descriptive error — never panic, never
// return garbage as success.
func TestLoaderFuzzRegression(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(4, 3, 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	var meshBuf, solBuf bytes.Buffer
	if err := WriteMesh(&meshBuf, m); err != nil {
		t.Fatal(err)
	}
	g := euler.Air
	sol := make([]euler.State, m.NV())
	for i := range sol {
		sol[i] = g.Freestream(0.7, 1)
	}
	if err := WriteSolution(&solBuf, 0.7, 1, sol); err != nil {
		t.Fatal(err)
	}

	loaders := []struct {
		name string
		data []byte
		load func([]byte) error
	}{
		{"mesh", meshBuf.Bytes(), func(b []byte) error {
			_, err := DecodeMesh(b)
			return err
		}},
		{"solution", solBuf.Bytes(), func(b []byte) error {
			_, _, _, err := DecodeSolution(b)
			return err
		}},
	}

	for _, ld := range loaders {
		t.Run(ld.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("loader panicked: %v", r)
				}
			}()
			if err := ld.load(ld.data); err != nil {
				t.Fatalf("pristine file rejected: %v", err)
			}
			// Truncation at every length short of the full file.
			for n := 0; n < len(ld.data); n++ {
				if err := ld.load(ld.data[:n]); err == nil {
					t.Fatalf("truncation to %d of %d bytes accepted", n, len(ld.data))
				}
			}
			// Byte corruption sweep. Unlike the CRC-trailered checkpoint,
			// these formats carry no integrity check, so a payload flip can
			// go unnoticed — but flips in magic, counts, indices, or kinds
			// must produce errors (with context), never a panic.
			for off := 0; off < len(ld.data); off += 3 {
				bad := append([]byte(nil), ld.data...)
				bad[off] ^= 0xFF
				err := ld.load(bad)
				if err != nil && !strings.Contains(err.Error(), "meshio:") {
					t.Fatalf("flip at %d: error lacks meshio context: %v", off, err)
				}
			}
		})
	}
}
