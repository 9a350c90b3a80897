package kregret

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snapshotFixture(t *testing.T) (*Dataset, *Index, []byte) {
	t.Helper()
	ds, err := NewDataset(testPoints(80, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ds.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return ds, idx, buf.Bytes()
}

// TestSnapshotTruncationEveryByte is the durability regression the
// CRC frame exists for: a snapshot cut at ANY byte boundary must come
// back as ErrCorruptIndex — never a panic, never a silently-wrong
// index. Before the frame, a truncation inside the second gob stream
// could decode into garbage or an opaque gob error.
func TestSnapshotTruncationEveryByte(t *testing.T) {
	ds, _, snap := snapshotFixture(t)
	for i := 0; i < len(snap); i++ {
		idx, err := LoadIndex(bytes.NewReader(snap[:i]), ds)
		if idx != nil {
			t.Fatalf("truncation at byte %d of %d produced an index", i, len(snap))
		}
		if !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("truncation at byte %d of %d: want ErrCorruptIndex, got %v", i, len(snap), err)
		}
	}
	// The untruncated snapshot still loads.
	if _, err := LoadIndex(bytes.NewReader(snap), ds); err != nil {
		t.Fatalf("full snapshot failed to load: %v", err)
	}
}

// Every single-byte corruption must be detected. Byte 4 is the frame
// version and gets its own error; everywhere else the CRC (or, for
// the magic, the magic check) reports corruption.
func TestSnapshotBitFlipEveryByte(t *testing.T) {
	ds, _, snap := snapshotFixture(t)
	for i := 0; i < len(snap); i++ {
		mutated := append([]byte(nil), snap...)
		mutated[i] ^= 0xa5
		idx, err := LoadIndex(bytes.NewReader(mutated), ds)
		if err == nil {
			t.Fatalf("bit flip at byte %d of %d accepted (index=%v)", i, len(snap), idx != nil)
		}
		if i == 4 {
			if !strings.Contains(err.Error(), "format") {
				t.Fatalf("version-byte flip: want a format-version error, got %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("bit flip at byte %d of %d: want ErrCorruptIndex, got %v", i, len(snap), err)
		}
	}
}

// legacyPayload encodes an index payload (wire header, then the
// StoredList) without the CRC frame, as older writers laid it out.
func legacyPayload(t *testing.T, ds *Dataset, idx *Index, version int, ext []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(indexWire{
		Version:  version,
		Checksum: ds.checksum(),
		N:        ds.Len(),
		Dim:      ds.Dim(),
		Cand:     idx.cand,
		Ext:      ext,
	}); err != nil {
		t.Fatal(err)
	}
	if err := idx.list.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRetiredSnapshot asserts that LoadIndex rejects snap with want,
// and that an engine finding snap at startup rebuilds, rewrites a
// loadable snapshot and answers exactly as a freshly built index.
func checkRetiredSnapshot(t *testing.T, ds *Dataset, idx *Index, snap []byte, want error) {
	t.Helper()
	if loaded, err := LoadIndex(bytes.NewReader(snap), ds); loaded != nil || !errors.Is(err, want) {
		t.Fatalf("LoadIndex = %v, %v; want %v", loaded, err, want)
	}
	path := filepath.Join(t.TempDir(), "idx.snap")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithSnapshot(path))
	if err != nil {
		t.Fatalf("engine startup over a retired snapshot: %v", err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	if !eng.Stats().SnapshotRebuilt {
		t.Fatal("engine served a retired snapshot without rebuilding")
	}
	if _, err := LoadFile(path, ds); err != nil {
		t.Fatalf("rebuilt snapshot does not load: %v", err)
	}
	wantAns, err := idx.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Index().Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if wantAns.MRR != got.MRR {
		t.Fatalf("rebuilt index answers differently: %v vs %v", got.MRR, wantAns.MRR)
	}
}

// Snapshots written by the pre-frame v1 code (two bare gob streams)
// are no longer read: LoadIndex reports them as ErrCorruptIndex, and
// an engine finding one at startup rebuilds instead of failing. The
// test reconstructs the exact v1 byte layout.
func TestSnapshotV1ReadCompatibility(t *testing.T) {
	ds, idx, _ := snapshotFixture(t)
	v1 := legacyPayload(t, ds, idx, indexVersion, nil)
	// Sanity: a legacy stream must not look framed.
	if bytes.HasPrefix(v1, []byte(snapshotMagic)) {
		t.Fatal("legacy gob stream collides with the snapshot magic")
	}
	checkRetiredSnapshot(t, ds, idx, v1, ErrCorruptIndex)
}

// Framed payloads of the versions before the current one (v1: no
// extreme set; v2: extreme set, no coreset) are rejected with the
// typed version error, and an engine finding one at startup rebuilds.
func TestSnapshotPayloadV1Compatibility(t *testing.T) {
	ds, idx, _ := snapshotFixture(t)
	sky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		version int
		ext     []int
	}{
		{"payload v1", 1, nil},
		{"payload v2", 2, sky},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := frameSnapshot(legacyPayload(t, ds, idx, tc.version, tc.ext))
			checkRetiredSnapshot(t, ds, idx, snap, errSnapshotVersion)
		})
	}
}

// Loading a snapshot into a fresh dataset seeds its skyline cache,
// and the seeded skyline must be exactly what the dataset would have
// computed itself — otherwise pruned evaluation would silently change.
func TestSnapshotSeedsExtremeSet(t *testing.T) {
	ds, idx, snap := snapshotFixture(t)
	fresh, err := NewDataset(testPoints(80, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(bytes.NewReader(snap), fresh)
	if err != nil {
		t.Fatal(err)
	}
	wantSky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	gotSky, err := fresh.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSky) != len(gotSky) {
		t.Fatalf("seeded skyline has %d points, computed %d", len(gotSky), len(wantSky))
	}
	for i := range wantSky {
		if wantSky[i] != gotSky[i] {
			t.Fatalf("seeded skyline differs at %d: %d vs %d", i, gotSky[i], wantSky[i])
		}
	}
	want, err := idx.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if want.MRR != got.MRR {
		t.Fatalf("seeded dataset answers differently: %v vs %v", got.MRR, want.MRR)
	}
}

// A CRC-valid frame can still carry a hostile extreme set; both
// out-of-range and out-of-order entries must be rejected as
// corruption before they seed the dataset.
func TestSnapshotRejectsBadExtremeSet(t *testing.T) {
	ds, idx, _ := snapshotFixture(t)
	for name, ext := range map[string][]int{
		"out of range":  {0, ds.Len()},
		"negative":      {-1, 2},
		"not ascending": {3, 3},
		"descending":    {5, 2},
	} {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(indexWire{
			Version:  indexVersion,
			Checksum: ds.checksum(),
			N:        ds.Len(),
			Dim:      ds.Dim(),
			Cand:     idx.cand,
			Ext:      ext,
		}); err != nil {
			t.Fatal(err)
		}
		if err := idx.list.Save(&payload); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndex(bytes.NewReader(frameSnapshot(payload.Bytes())), ds); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("%s extreme set: want ErrCorruptIndex, got %v", name, err)
		}
	}
}

// frameSnapshot wraps a raw payload in a valid v2 frame (magic,
// version, length, CRC) so tests can exercise the payload decoder
// with hand-built contents.
func frameSnapshot(payload []byte) []byte {
	frame := make([]byte, snapshotHdrLen, snapshotHdrLen+len(payload)+4)
	copy(frame, snapshotMagic)
	frame[4] = snapshotVersion
	binary.LittleEndian.PutUint64(frame[5:], uint64(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, snapshotCRC))
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	ds, idx, _ := snapshotFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.snap")
	if err := idx.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, ds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.Query(4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(4)
	if err != nil {
		t.Fatal(err)
	}
	if want.MRR != got.MRR {
		t.Fatalf("file round trip changed the answer: %v vs %v", got.MRR, want.MRR)
	}
	// Overwriting an existing snapshot is atomic, not additive.
	if err := idx.SaveFile(path, ds); err != nil {
		t.Fatalf("overwrite failed: %v", err)
	}
	if _, err := LoadFile(path, ds); err != nil {
		t.Fatalf("overwritten snapshot corrupt: %v", err)
	}
	// No temp-file litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("snapshot dir littered: %v", names)
	}
}

func TestLoadFileErrors(t *testing.T) {
	ds, idx, _ := snapshotFixture(t)
	dir := t.TempDir()

	if _, err := LoadFile(filepath.Join(dir, "nope.snap"), ds); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: want ErrNotExist, got %v", err)
	}

	// A snapshot of a different dataset is a mismatch, not corruption.
	other, err := NewDataset(testPoints(60, 3, 99))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "idx.snap")
	if err := idx.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, other); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("want ErrIndexMismatch, got %v", err)
	}

	// Garbage on disk is corruption.
	garbage := filepath.Join(dir, "garbage.snap")
	if err := os.WriteFile(garbage, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(garbage, ds); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("want ErrCorruptIndex for garbage, got %v", err)
	}
}
