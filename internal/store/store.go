// Package store is a content-addressed artifact store for the serving
// tier: meshes, checkpoints and solve results keyed by the sha256 of
// their bytes. A blob's hash is its identity — a client uploads a mesh
// once and every later job references it by hash, the coordinator moves
// checkpoints between nodes as hash references, and identical requests
// dedup naturally because identical bytes collapse to one key.
//
// The store is two tiers: an in-memory map for hot artifacts over an
// optional disk directory for durability. Disk blobs carry the same
// discipline as meshio checkpoints — a magic, a length header and a
// CRC32 (IEEE) trailer, written to a temp file, fsynced and renamed —
// so a crash mid-write can never leave a torn blob under a valid name,
// and bit rot is detected on read (a corrupt blob is quarantined, the
// entry forgotten, and a re-upload of the same bytes heals it).
//
// Eviction is idle-only LRU under byte budgets: pinned entries (an
// in-flight solve holding a mesh) are never evicted, memory eviction
// drops bytes that also live on disk first, and disk eviction removes
// whole artifacts least-recently-used.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// blobMagic leads every disk blob, versioned like the meshio formats.
const blobMagic = "EUL3DA01"

// blobOverhead is the framing around the payload: magic + int64 payload
// length + CRC32 trailer.
const blobOverhead = len(blobMagic) + 8 + 4

// MaxBlobSize bounds a single artifact (a fine mesh or checkpoint is a
// few MB; 256MB leaves two orders of headroom without letting one PUT
// exhaust the process).
const MaxBlobSize = 256 << 20

// ErrNotFound is returned by Get/Pin for hashes the store does not hold.
var ErrNotFound = errors.New("store: artifact not found")

// Sum returns the store key for a payload: lowercase hex sha256.
func Sum(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

// ValidHash reports whether h is syntactically a store key.
func ValidHash(h string) bool {
	if len(h) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// EncodeBlob frames a payload for disk: magic, payload length, payload,
// CRC32 (IEEE) trailer over everything preceding it.
func EncodeBlob(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+blobOverhead)
	out = append(out, blobMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// DecodeBlob validates a framed blob and returns its payload (aliasing
// b). It rejects short frames, a wrong magic, a length header that does
// not match the frame, and any CRC mismatch — a torn or bit-rotted blob
// never yields bytes.
func DecodeBlob(b []byte) ([]byte, error) {
	if len(b) < blobOverhead {
		return nil, fmt.Errorf("store: truncated blob (%d bytes)", len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("store: blob CRC mismatch: computed %08x, trailer %08x", got, want)
	}
	if string(body[:len(blobMagic)]) != blobMagic {
		return nil, fmt.Errorf("store: bad blob magic %q", body[:len(blobMagic)])
	}
	n := binary.LittleEndian.Uint64(body[len(blobMagic) : len(blobMagic)+8])
	payload := body[len(blobMagic)+8:]
	if n != uint64(len(payload)) {
		return nil, fmt.Errorf("store: blob length header %d, payload %d", n, len(payload))
	}
	return payload, nil
}

// Config sizes a Store.
type Config struct {
	// Dir is the disk tier ("" = memory only). Blobs land as
	// <hash>.blob; quarantined corrupt files as <hash>.blob.quar.
	Dir string

	// MemBudget caps resident payload bytes (default 256MB). Eviction
	// drops idle entries' memory copies, preferring ones safe on disk.
	MemBudget int64

	// DiskBudget caps on-disk blob bytes (default 2GB; ignored without
	// Dir). Disk eviction removes whole idle artifacts LRU-first.
	DiskBudget int64
}

func (c *Config) fill() {
	if c.MemBudget <= 0 {
		c.MemBudget = 256 << 20
	}
	if c.DiskBudget <= 0 {
		c.DiskBudget = 2 << 30
	}
}

// Metrics is the store's counter block; gauges (Len, MemBytes,
// DiskBytes) are read live from the store.
type Metrics struct {
	hits        int64
	misses      int64
	puts        int64
	dupPuts     int64
	evictions   int64
	quarantines int64
}

// entry is one artifact. data == nil means the memory copy was evicted
// (the blob lives on disk and reloads on demand).
type entry struct {
	hash     string
	data     []byte
	size     int64 // payload bytes
	blobSize int64 // framed on-disk bytes
	pins     int
	onDisk   bool
	elem     *list.Element
}

// Store is the two-tier content-addressed artifact store. All methods
// are safe for concurrent use. Slices returned by Get are shared and
// must be treated as read-only.
type Store struct {
	cfg Config

	mu        sync.Mutex
	entries   map[string]*entry
	lru       *list.List // front = most recently used
	memBytes  int64
	diskBytes int64
	writing   map[string]struct{} // hashes with a disk write in flight
	met       Metrics
}

// New builds a store, scanning an existing Dir so artifacts survive a
// process restart. Scanned blobs are admitted lazily: their bytes load
// (and CRC-verify) on first Get.
func New(cfg Config) (*Store, error) {
	cfg.fill()
	s := &Store{
		cfg:     cfg,
		entries: make(map[string]*entry),
		lru:     list.New(),
		writing: make(map[string]struct{}),
	}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", cfg.Dir, err)
	}
	ents, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", cfg.Dir, err)
	}
	for _, de := range ents {
		name := de.Name()
		hash, ok := strings.CutSuffix(name, ".blob")
		if !ok || !ValidHash(hash) {
			continue
		}
		fi, err := de.Info()
		if err != nil || fi.Size() < int64(blobOverhead) {
			continue // a torn leftover; Get would quarantine it anyway
		}
		e := &entry{hash: hash, size: fi.Size() - int64(blobOverhead), blobSize: fi.Size(), onDisk: true}
		e.elem = s.lru.PushBack(e)
		s.entries[hash] = e
		s.diskBytes += e.blobSize
	}
	return s, nil
}

// NewMemory builds a memory-only store with default budgets.
func NewMemory() *Store {
	s, err := New(Config{})
	if err != nil {
		panic(err) // unreachable: no Dir means no I/O in New
	}
	return s
}

// Dir returns the disk-tier directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.cfg.Dir }

func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.cfg.Dir, hash+".blob")
}

// Put stores a payload and returns its hash. Concurrent Puts of the
// same bytes collapse to one entry and at most one disk write: the
// first caller inserts the entry under the lock and performs the write;
// later callers see the entry and return immediately.
func (s *Store) Put(data []byte) (string, error) {
	if len(data) == 0 {
		return "", errors.New("store: refusing empty artifact")
	}
	if len(data) > MaxBlobSize {
		return "", fmt.Errorf("store: artifact %d bytes exceeds limit %d", len(data), MaxBlobSize)
	}
	hash := Sum(data)
	s.mu.Lock()
	if e, ok := s.entries[hash]; ok {
		// Same content already held (possibly only on disk, possibly
		// still being written by a racing Put): nothing to store.
		s.touchLocked(e)
		if e.data == nil && e.pins == 0 {
			// Re-admit the bytes we were just handed; cheaper than a
			// disk round trip on the next Get.
			e.data = append([]byte(nil), data...)
			s.memBytes += e.size
			s.evictLocked()
		}
		s.met.dupPuts++
		s.mu.Unlock()
		return hash, nil
	}
	e := &entry{hash: hash, data: append([]byte(nil), data...), size: int64(len(data))}
	e.elem = s.lru.PushFront(e)
	s.entries[hash] = e
	s.memBytes += e.size
	s.met.puts++
	writeDisk := s.cfg.Dir != ""
	if writeDisk {
		s.writing[hash] = struct{}{}
	}
	s.evictLocked()
	s.mu.Unlock()

	if !writeDisk {
		return hash, nil
	}
	err := writeBlob(s.blobPath(hash), e.data)
	s.mu.Lock()
	delete(s.writing, hash)
	if err == nil {
		if cur := s.entries[hash]; cur == e {
			e.onDisk = true
			e.blobSize = e.size + int64(blobOverhead)
			s.diskBytes += e.blobSize
			s.evictLocked()
		} else {
			// Evicted (memory-only) while the write was in flight; the
			// blob on disk is orphaned — remove it.
			os.Remove(s.blobPath(hash))
		}
	}
	s.mu.Unlock()
	if err != nil {
		// The entry stays memory-resident and serviceable; report the
		// durability failure to the caller.
		return hash, fmt.Errorf("store: persisting %s: %w", hash[:12], err)
	}
	return hash, nil
}

// writeBlob persists a framed payload atomically: temp file, fsync,
// rename — the meshio checkpoint discipline.
func writeBlob(path string, payload []byte) error {
	blob := EncodeBlob(payload)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
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

// Get returns the payload for hash, reloading (and CRC- plus
// hash-verifying) it from disk when the memory copy was evicted. A blob
// that fails verification is quarantined — renamed aside, its entry
// dropped — and Get reports ErrNotFound so the caller can re-fetch the
// artifact from wherever it originated.
func (s *Store) Get(hash string) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.entries[hash]
	if !ok {
		s.met.misses++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, hash)
	}
	if e.data != nil {
		s.touchLocked(e)
		s.met.hits++
		data := e.data
		s.mu.Unlock()
		return data, nil
	}
	// Pin across the disk read so eviction cannot remove the entry (or
	// the file) underneath us.
	e.pins++
	s.mu.Unlock()

	raw, err := os.ReadFile(s.blobPath(hash))
	var payload []byte
	if err == nil {
		payload, err = DecodeBlob(raw)
	}
	if err == nil && Sum(payload) != hash {
		err = fmt.Errorf("store: blob content does not match its name %s", hash[:12])
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	e.pins--
	if err != nil {
		s.quarantineLocked(e, err)
		s.met.misses++
		return nil, fmt.Errorf("%w: %s (blob failed verification)", ErrNotFound, hash)
	}
	if e.data == nil {
		e.data = payload
		s.memBytes += e.size
	}
	s.touchLocked(e)
	s.met.hits++
	data := e.data
	s.evictLocked()
	return data, nil
}

// Has reports whether the store holds hash (memory or disk, without
// verifying disk bytes — Get does that).
func (s *Store) Has(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[hash]
	return ok
}

// Size returns the payload size for hash, or ErrNotFound.
func (s *Store) Size(hash string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[hash]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, hash)
	}
	return e.size, nil
}

// Pin marks hash in use: a pinned entry (and its blob) survives any
// eviction pressure until the matching Unpin. Pins nest.
func (s *Store) Pin(hash string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[hash]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, hash)
	}
	e.pins++
	return nil
}

// Unpin releases one Pin reference.
func (s *Store) Unpin(hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[hash]; ok && e.pins > 0 {
		e.pins--
		if e.pins == 0 {
			s.evictLocked()
		}
	}
}

// quarantineLocked drops a failed entry, setting its blob aside as
// <hash>.blob.quar for post-mortem instead of deleting the evidence.
func (s *Store) quarantineLocked(e *entry, cause error) {
	if cur := s.entries[e.hash]; cur != e {
		return // a racing quarantine (or re-Put) already replaced it
	}
	path := s.blobPath(e.hash)
	os.Rename(path, path+".quar")
	if e.onDisk {
		s.diskBytes -= e.blobSize
	}
	if e.data != nil {
		s.memBytes -= e.size
	}
	s.lru.Remove(e.elem)
	delete(s.entries, e.hash)
	s.met.quarantines++
}

func (s *Store) touchLocked(e *entry) {
	s.lru.MoveToFront(e.elem)
}

// evictLocked enforces the byte budgets over idle (unpinned) entries,
// least-recently-used first. Memory pressure drops in-memory copies —
// removing the whole artifact only when it has no disk home and no
// write in flight. Disk pressure removes whole artifacts.
func (s *Store) evictLocked() {
	for el := s.lru.Back(); el != nil && s.memBytes > s.cfg.MemBudget; {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e.pins == 0 && e.data != nil {
			if e.onDisk {
				s.memBytes -= e.size
				e.data = nil
				s.met.evictions++
			} else if _, inflight := s.writing[e.hash]; !inflight {
				s.memBytes -= e.size
				s.lru.Remove(el)
				delete(s.entries, e.hash)
				s.met.evictions++
			}
		}
		el = prev
	}
	if s.cfg.Dir == "" {
		return
	}
	for el := s.lru.Back(); el != nil && s.diskBytes > s.cfg.DiskBudget; {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e.pins == 0 && e.onDisk {
			if _, inflight := s.writing[e.hash]; !inflight {
				os.Remove(s.blobPath(e.hash))
				s.diskBytes -= e.blobSize
				if e.data != nil {
					s.memBytes -= e.size
				}
				s.lru.Remove(el)
				delete(s.entries, e.hash)
				s.met.evictions++
			}
		}
		el = prev
	}
}

// --- observability ---------------------------------------------------------

// Len returns the number of artifacts tracked (memory or disk).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// MemBytes returns resident payload bytes.
func (s *Store) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memBytes
}

// DiskBytes returns on-disk framed blob bytes.
func (s *Store) DiskBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskBytes
}

// Stats snapshots the counters.
type Stats struct {
	Hits, Misses, Puts, DupPuts, Evictions, Quarantines int64
}

// Stats returns a counter snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.met.hits,
		Misses:      s.met.misses,
		Puts:        s.met.puts,
		DupPuts:     s.met.dupPuts,
		Evictions:   s.met.evictions,
		Quarantines: s.met.quarantines,
	}
}
