package meshio

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/store"
)

func TestMeshRoundTrip(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(6, 4, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMesh(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeMesh(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m2.NV() != m.NV() || m2.NT() != m.NT() || m2.NE() != m.NE() || len(m2.BFaces) != len(m.BFaces) {
		t.Fatalf("counts differ: %d/%d/%d/%d vs %d/%d/%d/%d",
			m2.NV(), m2.NT(), m2.NE(), len(m2.BFaces), m.NV(), m.NT(), m.NE(), len(m.BFaces))
	}
	for i := range m.X {
		if m.X[i] != m2.X[i] {
			t.Fatalf("vertex %d differs", i)
		}
	}
	for i := range m.Vol {
		if m.Vol[i] != m2.Vol[i] {
			t.Fatalf("dual volume %d differs (Finish not reproducible?)", i)
		}
	}
	for i := range m.BFaces {
		if m.BFaces[i].Kind != m2.BFaces[i].Kind {
			t.Fatalf("bface %d kind differs", i)
		}
	}
	if err := m2.Validate(1e-10); err != nil {
		t.Errorf("loaded mesh invalid: %v", err)
	}
}

func TestSolutionRoundTrip(t *testing.T) {
	g := euler.Air
	sol := []euler.State{
		g.Freestream(0.7, 1),
		g.FromPrimitive(1.2, 0.3, -0.1, 0.05, 0.8),
	}
	var buf bytes.Buffer
	if err := WriteSolution(&buf, 0.7, 1.0, sol); err != nil {
		t.Fatal(err)
	}
	mach, alpha, got, err := DecodeSolution(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if mach != 0.7 || alpha != 1.0 {
		t.Errorf("reference condition %v %v", mach, alpha)
	}
	for i := range sol {
		if got[i] != sol[i] {
			t.Fatalf("state %d differs", i)
		}
	}
}

// The solution format is pinned byte for byte: result artifacts are
// content-addressed, so a job's result hash is the digest of these bytes,
// and a change to the encoder would move every stored result's name. The
// digest was taken from the reflective binary.Write encoder the current
// one replaced; the state words include a negative zero and 1e-300.
func TestSolutionEncodingPinned(t *testing.T) {
	sol := []euler.State{
		{1, 0.5, -0.25, 0.125, 2.5},
		{0.875, math.Copysign(0, -1), 1e-300, -3.75, 2.0625},
		{1.125, 0.1, 0.2, 0.3, 2.7182818284590451},
	}
	b, err := EncodeSolution(0.7, 1, sol)
	if err != nil {
		t.Fatal(err)
	}
	const want = "86ecb3648b849b7b7edaaf9894fda3c1e3b46117f452e746eda85ed2f1e34014"
	if got := store.Sum(b); got != want || len(b) != 152 {
		t.Fatalf("EncodeSolution digest %s (%d bytes), want %s (152 bytes)", got, len(b), want)
	}
	var buf bytes.Buffer
	if err := WriteSolution(&buf, 0.7, 1, sol); err != nil || !bytes.Equal(buf.Bytes(), b) {
		t.Fatalf("WriteSolution wrote other bytes than EncodeSolution (err %v)", err)
	}
	mach, alpha, got, err := DecodeSolution(b)
	if err != nil || mach != 0.7 || alpha != 1 || len(got) != len(sol) {
		t.Fatalf("decode: %v %v %d states, err %v", mach, alpha, len(got), err)
	}
	for i := range sol {
		for k := range sol[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(sol[i][k]) {
				t.Fatalf("state %d var %d: %v, want %v", i, k, got[i][k], sol[i][k])
			}
		}
	}
}

func TestSolutionRejectsUnphysical(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSolution(&buf, 0.5, 0, []euler.State{{-1, 0, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeSolution(buf.Bytes()); err == nil {
		t.Error("accepted negative density")
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := DecodeMesh([]byte("NOTMAGIC-whatever")); err == nil {
		t.Error("accepted bad mesh magic")
	}
	if _, _, _, err := DecodeSolution([]byte("NOTMAGIC")); err == nil {
		t.Error("accepted bad solution magic")
	}
}

func TestTruncatedMeshRejected(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(3, 3, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMesh(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := DecodeMesh(data[:len(data)/2]); err == nil {
		t.Error("accepted truncated mesh")
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	m, err := meshgen.Channel(meshgen.DefaultChannel(4, 3, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	mp := filepath.Join(dir, "mesh.bin")
	if err := SaveMesh(mp, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadMesh(mp)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NV() != m.NV() {
		t.Error("mesh helper round trip")
	}

	sol := make([]euler.State, m.NV())
	for i := range sol {
		sol[i] = euler.Air.Freestream(0.6, 0)
	}
	sp := filepath.Join(dir, "sol.bin")
	if err := SaveSolution(sp, 0.6, 0, sol); err != nil {
		t.Fatal(err)
	}
	if _, _, got, err := LoadSolution(sp); err != nil || len(got) != len(sol) {
		t.Errorf("solution helper: %v %d", err, len(got))
	}

	if _, err := LoadMesh(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("loaded missing file")
	}
}

func TestWriteVTK(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(3, 3, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	sol := make([]euler.State, m.NV())
	extra := make([]float64, m.NV())
	for i := range sol {
		sol[i] = euler.Air.Freestream(0.6, 0)
		extra[i] = float64(i % 4)
	}
	var buf bytes.Buffer
	if err := WriteVTK(&buf, m, euler.Air, sol, "partition", extra); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# vtk DataFile Version 3.0",
		"DATASET UNSTRUCTURED_GRID",
		"SCALARS mach double 1",
		"VECTORS velocity double",
		"SCALARS partition double 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VTK output missing %q", want)
		}
	}
	if got := strings.Count(out, "\n4 "); got != m.NT() {
		t.Errorf("tet lines = %d, want %d", got, m.NT())
	}
	// Mesh-only output works too.
	buf.Reset()
	if err := WriteVTK(&buf, m, euler.Air, nil, "", nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "POINT_DATA") {
		t.Error("mesh-only VTK should not emit point data")
	}
	// Size validation.
	if err := WriteVTK(&buf, m, euler.Air, sol[:2], "", nil); err == nil {
		t.Error("accepted short solution")
	}
	if err := WriteVTK(&buf, m, euler.Air, nil, "", extra[:1]); err == nil {
		t.Error("accepted short extra field")
	}
}
