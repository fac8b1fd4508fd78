package fleetd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"testing"

	"flashwear/internal/fleet"
	"flashwear/internal/hostio"
	"flashwear/internal/nand"
	"flashwear/internal/report"
	"flashwear/internal/wtrace"
)

// fuzzFS is a read-only in-memory hostio.FS: just enough surface for
// openCell/scan, so the fuzzer never touches the real disk.
type fuzzFS map[string][]byte

type fuzzFile struct {
	*bytes.Reader
	name string
}

func (f *fuzzFile) Write(p []byte) (int, error) { return 0, errors.New("fuzzFS: read-only") }
func (f *fuzzFile) Close() error                { return nil }
func (f *fuzzFile) Name() string                { return f.name }
func (f *fuzzFile) Sync() error                 { return nil }
func (f *fuzzFile) Truncate(int64) error        { return errors.New("fuzzFS: read-only") }

func (m fuzzFS) Open(name string) (hostio.File, error) {
	b, ok := m[name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	return &fuzzFile{Reader: bytes.NewReader(b), name: name}, nil
}

func (m fuzzFS) Create(string) (hostio.File, error) { return nil, errors.New("fuzzFS: read-only") }
func (m fuzzFS) OpenFile(string, int, os.FileMode) (hostio.File, error) {
	return nil, errors.New("fuzzFS: read-only")
}
func (m fuzzFS) Rename(string, string) error           { return errors.New("fuzzFS: read-only") }
func (m fuzzFS) Remove(string) error                   { return errors.New("fuzzFS: read-only") }
func (m fuzzFS) MkdirAll(string, os.FileMode) error    { return errors.New("fuzzFS: read-only") }
func (m fuzzFS) ReadDir(string) ([]fs.DirEntry, error) { return nil, errors.New("fuzzFS: read-only") }
func (m fuzzFS) ReadFile(name string) ([]byte, error) {
	b, ok := m[name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	return b, nil
}
func (m fuzzFS) WriteFile(string, []byte, os.FileMode) error { return errors.New("fuzzFS: read-only") }
func (m fuzzFS) Stat(string) (fs.FileInfo, error)            { return nil, errors.New("fuzzFS: read-only") }

// buildSeedCell assembles a small, fully valid checkpoint cell by hand:
// file magic and version, a header frame, one device frame (two blocks,
// one literal page, one zero page), and a footer frame with the end
// marker. It decodes cleanly, so mutations of it explore the deep paths.
func buildSeedCell() []byte {
	var out []byte
	out = append(out, fileMagic...)
	out = binary.LittleEndian.AppendUint32(out, ckptVersion)
	frame := func(typ byte, payload []byte) {
		out = append(out, typ)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}

	var e enc
	e.fileHeader(fileHeader{Seed: 7, Devices: 2, Days: 3, Shard: 0, Epoch: 1, DevLo: 0, DevHi: 2, DayLo: 0, DayHi: 3})
	frame(frameHeader, e.b)

	geo := nand.Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 2, PagesPerBlock: 4, PageSize: 16, SpareSize: 0}
	page := bytes.Repeat([]byte{0xA5}, geo.PageSize)
	st := &deviceState{
		Index:        1,
		DaysDone:     3,
		BytesWritten: 1 << 20,
		Main: &nand.ChipState{
			Geometry: geo,
			Blocks: []nand.BlockState{
				{EraseCount: 2, NextPage: 2, Meta: []nand.OOB{{LP: 0, Seq: 1, Org: 0}, {LP: 1, Seq: 2, Org: 1}},
					Data: map[int][]byte{0: page, 1: make([]byte, geo.PageSize)}},
				{Bad: true},
			},
		},
	}
	e = enc{}
	e.deviceState(st)
	frame(frameDevice, e.b)

	days := 3
	ft := &epochFooter{
		Shard: 0, Epoch: 1, DayLo: 0, DayHi: days, Live: 1,
		Rows:       make([][]int64, days),
		Wear:       make([]report.Sketch, days),
		FrozenRows: make([]int64, fleet.Cols),
		FrozenWear: report.NewSketch(wearLevels),
		Agg:        newAggregate(),
		Ledger:     wtrace.Snapshot{PageSize: 16, Rows: []wtrace.Row{{Origin: "os", HostPages: 4}}},
	}
	for i := range ft.Rows {
		ft.Rows[i] = make([]int64, fleet.Cols)
		ft.Wear[i] = report.NewSketch(wearLevels)
	}
	e = enc{}
	e.footer(ft)
	frame(frameFooter, e.b)

	out = append(out, endMagic...)
	return out
}

// FuzzCellDecode drives the checkpoint reader with arbitrary bytes. The
// contract under test: openCell/scan never panic and never allocate
// proportionally to a lying length field, and every failure maps to
// exactly the three-way error policy — ErrCheckpointTruncated,
// ErrCheckpointCorrupt, or ErrCheckpointVersion — so the sweep's
// cellUsable triage (recompute vs refuse) always has a defined answer.
func FuzzCellDecode(f *testing.F) {
	seed := buildSeedCell()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte(fileMagic))
	f.Add(seed[:len(seed)-3])        // missing end marker tail
	f.Add(seed[:len(fileMagic)+4+5]) // truncated mid-frame
	for _, cut := range []int{12, 40, len(seed) / 2} {
		if cut < len(seed) {
			f.Add(seed[:cut])
		}
	}
	flipped := append([]byte(nil), seed...)
	flipped[len(fileMagic)+4+5+3] ^= 0xFF // corrupt header frame payload (CRC catches it)
	f.Add(flipped)
	lying := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(lying[len(fileMagic)+4+1:], 0xFFFFFFFF) // giant frame length claim
	f.Add(lying)
	wrongVer := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(wrongVer[len(fileMagic):], ckptVersion+1)
	f.Add(wrongVer)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		check := func(err error) {
			if err == nil {
				return
			}
			if !errors.Is(err, ErrCheckpointTruncated) &&
				!errors.Is(err, ErrCheckpointCorrupt) &&
				!errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("error outside the checkpoint error policy: %v", err)
			}
		}
		fsys := fuzzFS{"cell.ckpt": data}
		r, err := openCell(fsys, "cell.ckpt")
		if err != nil {
			check(err)
			return
		}
		defer r.Close()
		devices := 0
		_, err = r.scan(func(st *deviceState) error {
			devices++
			if st == nil {
				t.Fatal("scan delivered a nil device state without an error")
			}
			return nil
		})
		check(err)
	})
}
