// Package meshio reads and writes the on-disk artifacts of the solver
// pipeline, mirroring the paper's file-based workflow (grids are generated
// and partitioned in a sequential preprocessing phase, written out, and
// read back by the solver; the reported C90 runs even include "the time to
// read all grid files, write out the solution"). The formats are compact
// little-endian binaries with a magic header and explicit counts.
package meshio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"eul3d/internal/euler"
	"eul3d/internal/geom"
	"eul3d/internal/mesh"
)

const (
	meshMagic = "EUL3DM01"
	solMagic  = "EUL3DS01"
	partMagic = "EUL3DP01"
)

// stateBytes is one euler.State on the wire.
const stateBytes = 8 * euler.NVar

// WriteMesh serializes a finished mesh (vertices, tets, boundary faces
// with kinds). Edge structures are rebuilt by Finish on load.
func WriteMesh(w io.Writer, m *mesh.Mesh) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(meshMagic); err != nil {
		return err
	}
	hdr := []int64{int64(m.NV()), int64(m.NT()), int64(len(m.BFaces))}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for _, x := range m.X {
		if err := binary.Write(bw, binary.LittleEndian, [3]float64{x.X, x.Y, x.Z}); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, m.Tets); err != nil {
		return err
	}
	for _, f := range m.BFaces {
		if err := binary.Write(bw, binary.LittleEndian, f.V); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(f.Kind)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeMesh deserializes wire-format mesh bytes and finishes the mesh
// (rebuilding the edge-based structures). Like every decoder here it holds
// the whole input, so each count a header declares is checked against the
// bytes that follow before anything is allocated: a crafted header cannot
// make it allocate more than its input's size.
func DecodeMesh(b []byte) (*mesh.Mesh, error) {
	br := bytes.NewReader(b)
	if err := expectMagic(br, meshMagic); err != nil {
		return nil, err
	}
	var hdr [3]int64
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("meshio: mesh header: %w", err)
	}
	nv, nt, nbf := hdr[0], hdr[1], hdr[2]
	if nv < 0 || nt < 0 || nbf < 0 || nv > 1<<31 || nt > 1<<31 || nbf > 1<<31 {
		return nil, fmt.Errorf("meshio: implausible header %v", hdr)
	}
	if need := nv*24 + nt*16 + nbf*13; need > int64(br.Len()) {
		return nil, fmt.Errorf("meshio: mesh header %v needs %d bytes, %d follow", hdr, need, br.Len())
	}
	xyz := make([]float64, 3*nv)
	if err := binary.Read(br, binary.LittleEndian, xyz); err != nil {
		return nil, fmt.Errorf("meshio: mesh vertices (%d): %w", nv, err)
	}
	m := &mesh.Mesh{
		X:    make([]geom.Vec3, nv),
		Tets: make([][4]int32, nt),
	}
	for i := range m.X {
		x := xyz[3*i : 3*i+3]
		if math.IsNaN(x[0]) || math.IsNaN(x[1]) || math.IsNaN(x[2]) {
			return nil, fmt.Errorf("meshio: mesh vertex %d has NaN coordinates", i)
		}
		m.X[i] = geom.Vec3{X: x[0], Y: x[1], Z: x[2]}
	}
	if err := binary.Read(br, binary.LittleEndian, &m.Tets); err != nil {
		return nil, fmt.Errorf("meshio: tetrahedra block (%d tets after %d vertices): %w", nt, nv, err)
	}
	for ti, tet := range m.Tets {
		for k, v := range tet {
			if v < 0 || int64(v) >= nv {
				return nil, fmt.Errorf("meshio: tet %d corner %d references vertex %d outside [0,%d)", ti, k, v, nv)
			}
		}
	}
	m.BFaces = make([]mesh.BFace, nbf)
	for i := range m.BFaces {
		if err := binary.Read(br, binary.LittleEndian, &m.BFaces[i].V); err != nil {
			return nil, fmt.Errorf("meshio: boundary face %d of %d: %w", i, nbf, err)
		}
		for k, v := range m.BFaces[i].V {
			if v < 0 || int64(v) >= nv {
				return nil, fmt.Errorf("meshio: boundary face %d corner %d references vertex %d outside [0,%d)", i, k, v, nv)
			}
		}
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("meshio: boundary face %d kind byte: %w", i, err)
		}
		if kind > byte(mesh.Symmetry) {
			return nil, fmt.Errorf("meshio: boundary face %d: unknown boundary kind %d", i, kind)
		}
		m.BFaces[i].Kind = mesh.BCKind(kind)
	}
	if err := m.Finish(); err != nil {
		return nil, fmt.Errorf("meshio: finishing loaded mesh: %w", err)
	}
	return m, nil
}

// WriteSolution serializes a flow solution with its reference condition.
func WriteSolution(w io.Writer, mach, alphaDeg float64, sol []euler.State) error {
	b, _ := EncodeSolution(mach, alphaDeg, sol) // cannot fail
	_, err := w.Write(b)
	return err
}

// solHeaderBytes is the reference condition and the vertex count.
const solHeaderBytes = 3 * 8

// DecodeSolution deserializes a flow solution.
func DecodeSolution(b []byte) (mach, alphaDeg float64, sol []euler.State, err error) {
	if err = expectMagic(bytes.NewReader(b), solMagic); err != nil {
		return
	}
	b = b[len(solMagic):]
	if len(b) < solHeaderBytes {
		err = fmt.Errorf("meshio: solution header: %d bytes, want %d", len(b), solHeaderBytes)
		return
	}
	le := binary.LittleEndian
	mach, alphaDeg = math.Float64frombits(le.Uint64(b)), math.Float64frombits(le.Uint64(b[8:]))
	n := int64(le.Uint64(b[16:]))
	b = b[solHeaderBytes:]
	if n < 0 || n > int64(len(b))/stateBytes {
		err = fmt.Errorf("meshio: solution header claims %d vertices, %d bytes follow", n, len(b))
		return
	}
	sol = make([]euler.State, n)
	for i := range sol {
		for k := range sol[i] {
			sol[i][k] = math.Float64frombits(le.Uint64(b[8*k:]))
		}
		b = b[stateBytes:]
	}
	for i := range sol {
		if sol[i][0] <= 0 || math.IsNaN(sol[i][0]) {
			err = fmt.Errorf("meshio: unphysical density at vertex %d", i)
			return
		}
		for k := 0; k < euler.NVar; k++ {
			if math.IsNaN(sol[i][k]) || math.IsInf(sol[i][k], 0) {
				err = fmt.Errorf("meshio: solution vertex %d var %d is %g", i, k, sol[i][k])
				return
			}
		}
	}
	return
}

// WritePartition serializes a processor assignment.
func WritePartition(w io.Writer, nproc int, part []int32) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(partMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, []int64{int64(nproc), int64(len(part))}); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, part); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodePartition deserializes a processor assignment, validating the range.
func DecodePartition(b []byte) (nproc int, part []int32, err error) {
	br := bytes.NewReader(b)
	if err = expectMagic(br, partMagic); err != nil {
		return
	}
	var hdr [2]int64
	if err = binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		err = fmt.Errorf("meshio: partition header: %w", err)
		return
	}
	if hdr[0] < 1 || hdr[1] < 0 || hdr[1] > int64(br.Len())/4 {
		err = fmt.Errorf("meshio: implausible partition header %v (%d bytes follow)", hdr, br.Len())
		return
	}
	nproc = int(hdr[0])
	part = make([]int32, hdr[1])
	if err = binary.Read(br, binary.LittleEndian, &part); err != nil {
		err = fmt.Errorf("meshio: partition assignments (%d vertices): %w", hdr[1], err)
		return
	}
	for g, p := range part {
		if p < 0 || int(p) >= nproc {
			err = fmt.Errorf("meshio: vertex %d assigned to invalid processor %d of %d", g, p, nproc)
			return
		}
	}
	return
}

// SaveMesh / LoadMesh / SaveSolution / LoadSolution / SavePartition /
// LoadPartition are the file-path conveniences used by the commands.

// SaveMesh writes m to path.
func SaveMesh(path string, m *mesh.Mesh) error {
	return withCreate(path, func(f *os.File) error { return WriteMesh(f, m) })
}

// LoadMesh reads a mesh from path.
func LoadMesh(path string) (*mesh.Mesh, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeMesh(b)
}

// SaveSolution writes a solution to path.
func SaveSolution(path string, mach, alphaDeg float64, sol []euler.State) error {
	return withCreate(path, func(f *os.File) error { return WriteSolution(f, mach, alphaDeg, sol) })
}

// LoadSolution reads a solution from path.
func LoadSolution(path string) (mach, alphaDeg float64, sol []euler.State, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	return DecodeSolution(b)
}

// SavePartition writes a partition to path.
func SavePartition(path string, nproc int, part []int32) error {
	return withCreate(path, func(f *os.File) error { return WritePartition(f, nproc, part) })
}

// LoadPartition reads a partition from path.
func LoadPartition(path string) (int, []int32, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	return DecodePartition(b)
}

func withCreate(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func expectMagic(r io.Reader, magic string) error {
	buf := make([]byte, len(magic))
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("meshio: reading magic: %w", err)
	}
	if string(buf) != magic {
		return fmt.Errorf("meshio: bad magic %q, want %q", buf, magic)
	}
	return nil
}

// --- byte-level helpers ----------------------------------------------------
//
// The content-addressed artifact store (internal/store) traffics in raw
// payload bytes: a mesh artifact is the WriteMesh wire format, a solve
// result the WriteSolution format, a checkpoint EncodeCheckpoint's. These
// helpers bridge between the writers and []byte without touching the
// filesystem.

// EncodeMesh serializes a mesh to its wire-format bytes.
func EncodeMesh(m *mesh.Mesh) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteMesh(&buf, m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeSolution serializes a solution to its wire-format bytes: the
// magic, then every word little-endian — Mach, alpha, the vertex count and
// the states — into one buffer sized up front. It cannot fail; the error
// keeps the shape of the other encoders.
func EncodeSolution(mach, alphaDeg float64, sol []euler.State) ([]byte, error) {
	le := binary.LittleEndian
	b := make([]byte, 0, len(solMagic)+solHeaderBytes+len(sol)*stateBytes)
	b = append(b, solMagic...)
	b = le.AppendUint64(b, math.Float64bits(mach))
	b = le.AppendUint64(b, math.Float64bits(alphaDeg))
	b = le.AppendUint64(b, uint64(len(sol)))
	for i := range sol {
		for _, v := range sol[i] {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}
