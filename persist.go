package kregret

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
)

// Errors returned by the persistence layer.
var (
	// ErrIndexMismatch is returned by LoadIndex when the serialized
	// index was built from a different dataset than the one supplied.
	ErrIndexMismatch = errors.New("kregret: index does not match dataset")

	// ErrCorruptIndex is returned by LoadIndex/LoadFile when the
	// snapshot bytes are damaged — truncated, bit-flipped, or not a
	// snapshot at all. A corrupt snapshot is always reported as this
	// typed error (never a panic, never a silently-wrong index), so
	// callers can fall back to rebuilding the StoredList.
	ErrCorruptIndex = errors.New("kregret: corrupt index snapshot")

	// errSnapshotVersion wraps both frame- and payload-version
	// mismatches: an intact snapshot written by another format
	// version, which loadFailureRebuildable treats like corruption.
	errSnapshotVersion = errors.New("kregret: unsupported index snapshot version")
)

// Snapshot wire format v2, the only one LoadIndex reads:
//
//	offset 0  magic "KRGX" (4 bytes)
//	       4  format version (1 byte, currently 2)
//	       5  payload length (uint64 little-endian)
//	      13  payload: gob(indexWire) ++ gob(StoredList)
//	  13+len  CRC-32C over bytes [0, 13+len) (uint32 little-endian)
//
// The CRC trailer covers the header and both gob streams together, so
// a truncation or bit flip anywhere in the file surfaces as
// ErrCorruptIndex before any gob decoding happens. The pre-frame
// format (bare concatenated gob streams) lacks the magic and is
// rejected as ErrCorruptIndex; another frame version is an
// errSnapshotVersion error. Either way the engine's WithSnapshot
// startup rebuilds the index: a snapshot is derived data.
const (
	snapshotMagic   = "KRGX"
	snapshotVersion = 2
	snapshotHdrLen  = 4 + 1 + 8
	// maxSnapshotPayload caps the framed payload length so a corrupt
	// length field cannot drive an allocation of attacker-chosen size.
	maxSnapshotPayload = 1 << 32
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// indexWire is the gob envelope around a stored list: the happy
// candidate mapping plus a checksum binding the index to the dataset
// it was built from. Its Version field versions the payload schema,
// independent of the outer frame version; only the current version
// loads.
//
// Ext holds the skyline (extreme set) indices computed during
// preprocessing, so loading a snapshot also seeds the dataset's
// evaluation pruning without recomputing the skyline pass. Core holds
// the sharded engine's merged coreset (global indices, ascending), so
// reload can tell a core-built StoredList apart from an exact one and
// match it against the current shard configuration. Ext and Core are
// mutually exclusive: a core-built snapshot skips the full-dataset
// skyline (recomputing it at scale would defeat the sharding).
type indexWire struct {
	Version  int
	Checksum uint64
	N, Dim   int
	Cand     []int
	Ext      []int
	Core     []int
}

const indexVersion = 3

// wireManifest pins the gob wire layout of every struct this package
// persists (checked by the wireguard analyzer): changing a field
// means rewriting the entry on this line, which is where the version
// bump gets reviewed.
var wireManifest = map[string]string{
	"indexWire":   "v3 Version int; Checksum uint64; N int; Dim int; Cand []int; Ext []int; Core []int",
	"datasetWire": "v1 Version int; Seq uint64; N int; Dim int; Coords []float64",
}

// checksum fingerprints the (normalized) dataset contents.
func (d *Dataset) checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range d.snap().pts {
		for _, x := range p {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			//kregret:allow errdrop: hash.Hash.Write never returns an error
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// Save serializes the index so later processes can skip the expensive
// StoredList preprocessing. The dataset itself is not stored; load
// with LoadIndex against an identically-constructed Dataset. The
// stream is framed with a CRC-32C trailer (format v2) so corruption
// is detectable on load; use SaveFile for crash-safe writes to disk.
func (x *Index) Save(w io.Writer, d *Dataset) error {
	// The skyline is already cached on any dataset that built an index
	// (happy-point extraction runs it); persisting it lets the loader
	// seed evaluation pruning for free. A core-built index (sharded
	// engine) persists the core instead: its dataset never ran a
	// full-dataset skyline and must not start now.
	var sky []int
	if x.core == nil {
		var err error
		sky, err = d.Skyline()
		if err != nil {
			return fmt.Errorf("kregret: saving index: %w", err)
		}
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(indexWire{
		Version:  indexVersion,
		Checksum: d.checksum(),
		N:        d.Len(),
		Dim:      d.Dim(),
		Cand:     x.cand,
		Ext:      sky,
		Core:     x.core,
	}); err != nil {
		return fmt.Errorf("kregret: saving index: %w", err)
	}
	if err := x.list.Save(&payload); err != nil {
		return fmt.Errorf("kregret: saving index list: %w", err)
	}

	frame := make([]byte, snapshotHdrLen, snapshotHdrLen+payload.Len()+4)
	copy(frame, snapshotMagic)
	frame[4] = snapshotVersion
	binary.LittleEndian.PutUint64(frame[5:], uint64(payload.Len()))
	frame = append(frame, payload.Bytes()...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, snapshotCRC))
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("kregret: saving index: %w", err)
	}
	return nil
}

// LoadIndex restores an index saved with Index.Save, verifying both
// the snapshot integrity (CRC trailer; damage comes back as
// ErrCorruptIndex) and that it was built from exactly the given
// dataset (content checksum; mismatch comes back as
// ErrIndexMismatch). A snapshot of another format version is an
// error too; rebuild the index from the dataset.
func LoadIndex(r io.Reader, d *Dataset) (*Index, error) {
	hdr := make([]byte, snapshotHdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorruptIndex, err)
	}
	if string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("%w: missing %s magic", ErrCorruptIndex, snapshotMagic)
	}
	if v := hdr[4]; v != snapshotVersion {
		return nil, fmt.Errorf("%w: frame format v%d, want v%d", errSnapshotVersion, v, snapshotVersion)
	}
	n := binary.LittleEndian.Uint64(hdr[5:])
	if n > maxSnapshotPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorruptIndex, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrCorruptIndex, err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: missing CRC trailer: %v", ErrCorruptIndex, err)
	}
	crc := crc32.Checksum(hdr, snapshotCRC)
	crc = crc32.Update(crc, snapshotCRC, payload)
	if got := binary.LittleEndian.Uint32(trailer[:]); got != crc {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorruptIndex, got, crc)
	}
	return decodeIndexPayload(bytes.NewReader(payload), d)
}

// decodeIndexPayload decodes the payload's two gob streams and
// validates them against the dataset. Decode failures are
// corruption; a clean decode that names a different dataset is
// ErrIndexMismatch.
func decodeIndexPayload(r io.Reader, d *Dataset) (*Index, error) {
	var wire indexWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("%w: decoding index: %v", ErrCorruptIndex, err)
	}
	if wire.Version != indexVersion {
		return nil, fmt.Errorf("%w: payload v%d, want v%d", errSnapshotVersion, wire.Version, indexVersion)
	}
	if wire.N != d.Len() || wire.Dim != d.Dim() || wire.Checksum != d.checksum() {
		return nil, ErrIndexMismatch
	}
	for _, c := range wire.Cand {
		if c < 0 || c >= d.Len() {
			return nil, fmt.Errorf("%w: index candidate %d out of range", ErrCorruptIndex, c)
		}
	}
	// Validate the extreme set before seeding: a snapshot that passed
	// the CRC can still carry garbage if it was written by a buggy or
	// hostile producer.
	for k, e := range wire.Ext {
		if e < 0 || e >= d.Len() {
			return nil, fmt.Errorf("%w: extreme index %d out of range", ErrCorruptIndex, e)
		}
		if k > 0 && e <= wire.Ext[k-1] {
			return nil, fmt.Errorf("%w: extreme set not strictly ascending at position %d", ErrCorruptIndex, k)
		}
	}
	// The sharded core gets the same treatment: global
	// indices, strictly ascending. Ext is never persisted alongside it.
	for k, c := range wire.Core {
		if c < 0 || c >= d.Len() {
			return nil, fmt.Errorf("%w: core index %d out of range", ErrCorruptIndex, c)
		}
		if k > 0 && c <= wire.Core[k-1] {
			return nil, fmt.Errorf("%w: core not strictly ascending at position %d", ErrCorruptIndex, k)
		}
	}
	list, err := core.LoadStoredList(r)
	if err != nil {
		return nil, fmt.Errorf("%w: loading index list: %v", ErrCorruptIndex, err)
	}
	if len(wire.Ext) > 0 {
		d.seedSkyline(wire.Ext)
	}
	return &Index{list: list, cand: wire.Cand, core: wire.Core}, nil
}

// SaveFile writes the index snapshot to path crash-safely: the bytes
// go to a temporary file in the same directory, are fsynced, and the
// temp file is atomically renamed over path (whose directory is then
// fsynced). A crash at any point leaves either the old file or the
// complete new one — never a torn snapshot — and a torn write that
// slips through anyway (disk lying about sync) is caught by the CRC
// on load.
func (x *Index) SaveFile(path string, d *Dataset) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".kregret-index-*")
	if err != nil {
		return fmt.Errorf("kregret: saving index snapshot: %w", err)
	}
	if err := x.Save(tmp, d); err != nil {
		return errors.Join(err, tmp.Close(), os.Remove(tmp.Name()))
	}
	if err := syncTemp(tmp); err != nil {
		err = fmt.Errorf("kregret: syncing index snapshot: %w", err)
		return errors.Join(err, tmp.Close(), os.Remove(tmp.Name()))
	}
	if err := tmp.Close(); err != nil {
		err = fmt.Errorf("kregret: closing index snapshot: %w", err)
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		err = fmt.Errorf("kregret: publishing index snapshot: %w", err)
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("kregret: syncing snapshot directory: %w", err)
	}
	if fault.Enabled && fault.Active(fault.SitePersistTornWrite) {
		tearFile(path)
	}
	return nil
}

// syncTemp fsyncs a snapshot temp file, honoring the persist.sync
// fault site: an injected failure behaves exactly like a full disk or
// a dying device reporting the fsync error, and the caller's cleanup
// must remove the temp file and leave the previous snapshot loadable.
func syncTemp(f *os.File) error {
	if fault.Enabled && fault.Active(fault.SitePersistSync) {
		return errors.New("fsync failed (injected)")
	}
	return f.Sync()
}

// syncDir fsyncs a directory so the rename that published a snapshot
// is itself durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// tearFile truncates a published snapshot to half its size — the
// fault-injection model of a crash that tore the write despite the
// atomic-rename protocol (e.g. a device that acknowledged the sync
// without persisting). Only reachable under the kregretfault tag.
func tearFile(path string) {
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	//kregret:allow errdrop: fault injection is best-effort by design
	os.Truncate(path, info.Size()/2)
}

// LoadFile restores an index snapshot written by SaveFile (or any
// Save output on disk). Corruption is ErrCorruptIndex, a snapshot of
// a different dataset is ErrIndexMismatch, and a missing file is the
// underlying fs error (check with os.IsNotExist / errors.Is).
func LoadFile(path string, d *Dataset) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kregret: loading index snapshot: %w", err)
	}
	idx, err := LoadIndex(f, d)
	if cerr := f.Close(); err == nil && cerr != nil {
		return nil, fmt.Errorf("kregret: closing index snapshot: %w", cerr)
	}
	return idx, err
}

// ErrCorruptSnapshot is returned by Recover (via loadDatasetFile)
// when the dataset base snapshot bytes are damaged — truncated,
// bit-flipped, or not a dataset snapshot at all. Like ErrCorruptIndex
// it is always a typed error, never a panic or a silently-wrong
// dataset.
var ErrCorruptSnapshot = errors.New("kregret: corrupt dataset snapshot")

// Dataset base snapshot format v1 — the durable half of the
// (snapshot, WAL) pair behind WithWAL/Recover. Same framing as index
// snapshots, with its own magic:
//
//	offset 0  magic "KRGD" (4 bytes)
//	       4  format version (1 byte, currently 1)
//	       5  payload length (uint64 little-endian)
//	      13  payload: gob(datasetWire)
//	  13+len  CRC-32C over bytes [0, 13+len) (uint32 little-endian)
const (
	dsSnapMagic   = "KRGD"
	dsSnapVersion = 1
)

// datasetWire is the gob envelope of a dataset base snapshot: the
// (already normalized) points flattened row-major, plus the sequence
// number of the last mutation folded in — the watermark Recover's
// replay skips WAL records by.
type datasetWire struct {
	Version int
	Seq     uint64
	N, Dim  int
	Coords  []float64
}

const datasetWireVersion = 1

// saveDatasetFile writes st as a base snapshot to path with the same
// crash-safe protocol as Index.SaveFile: temp file in the target
// directory, fsync (the persist.sync fault site), atomic rename, and
// a directory sync. A failure at any step removes the temp file and
// leaves a previous snapshot at path untouched.
func saveDatasetFile(path string, st *dsState) error {
	wire := datasetWire{
		Version: datasetWireVersion,
		Seq:     st.seq,
		N:       len(st.pts),
		Dim:     len(st.pts[0]),
		Coords:  make([]float64, 0, len(st.pts)*len(st.pts[0])),
	}
	for _, p := range st.pts {
		wire.Coords = append(wire.Coords, p...)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wire); err != nil {
		return fmt.Errorf("kregret: saving dataset snapshot: %w", err)
	}
	frame := make([]byte, snapshotHdrLen, snapshotHdrLen+payload.Len()+4)
	copy(frame, dsSnapMagic)
	frame[4] = dsSnapVersion
	binary.LittleEndian.PutUint64(frame[5:], uint64(payload.Len()))
	frame = append(frame, payload.Bytes()...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, snapshotCRC))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".kregret-dataset-*")
	if err != nil {
		return fmt.Errorf("kregret: saving dataset snapshot: %w", err)
	}
	if _, err := tmp.Write(frame); err != nil {
		err = fmt.Errorf("kregret: saving dataset snapshot: %w", err)
		return errors.Join(err, tmp.Close(), os.Remove(tmp.Name()))
	}
	if err := syncTemp(tmp); err != nil {
		err = fmt.Errorf("kregret: syncing dataset snapshot: %w", err)
		return errors.Join(err, tmp.Close(), os.Remove(tmp.Name()))
	}
	if err := tmp.Close(); err != nil {
		err = fmt.Errorf("kregret: closing dataset snapshot: %w", err)
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		err = fmt.Errorf("kregret: publishing dataset snapshot: %w", err)
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("kregret: syncing snapshot directory: %w", err)
	}
	if fault.Enabled && fault.Active(fault.SitePersistTornWrite) {
		tearFile(path)
	}
	return nil
}

// loadDatasetFile reads a base snapshot back: the points and the
// sequence watermark. Any framing, integrity or structural violation
// is ErrCorruptSnapshot; a missing file is the underlying fs error.
func loadDatasetFile(path string) ([]geom.Vector, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("kregret: loading dataset snapshot: %w", err)
	}
	if len(data) < snapshotHdrLen+4 {
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the frame", ErrCorruptSnapshot, len(data))
	}
	if string(data[:4]) != dsSnapMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, data[:4])
	}
	if v := data[4]; v != dsSnapVersion {
		return nil, 0, fmt.Errorf("kregret: dataset snapshot format v%d, want v%d", v, dsSnapVersion)
	}
	n := binary.LittleEndian.Uint64(data[5:])
	if n > maxSnapshotPayload || snapshotHdrLen+n+4 != uint64(len(data)) {
		return nil, 0, fmt.Errorf("%w: payload length %d does not match file size %d", ErrCorruptSnapshot, n, len(data))
	}
	body := data[:len(data)-4]
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc := crc32.Checksum(body, snapshotCRC); stored != crc {
		return nil, 0, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorruptSnapshot, stored, crc)
	}
	var wire datasetWire
	if err := gob.NewDecoder(bytes.NewReader(body[snapshotHdrLen:])).Decode(&wire); err != nil {
		return nil, 0, fmt.Errorf("%w: decoding payload: %v", ErrCorruptSnapshot, err)
	}
	if wire.Version != datasetWireVersion {
		return nil, 0, fmt.Errorf("kregret: dataset snapshot payload v%d, want v%d", wire.Version, datasetWireVersion)
	}
	if wire.N < 1 || wire.Dim < 1 || len(wire.Coords) != wire.N*wire.Dim {
		return nil, 0, fmt.Errorf("%w: %d coordinates for %d×%d points", ErrCorruptSnapshot, len(wire.Coords), wire.N, wire.Dim)
	}
	pts := make([]geom.Vector, wire.N)
	for i := range pts {
		pts[i] = geom.Vector(wire.Coords[i*wire.Dim : (i+1)*wire.Dim : (i+1)*wire.Dim])
	}
	if err := validateVectors(pts); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return pts, wire.Seq, nil
}
