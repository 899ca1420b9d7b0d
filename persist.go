package unisem

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/table"
)

// A saved directory holds graph.json, catalog.json and MANIFEST.
// graph.json writes a table's row vertices as ranges of its rows
// section, not as one node and two edge records per mention
// (internal/graph/serialize.go). Save writes the two snapshot files
// under epoch names, records their lengths and CRC-32C checksums in
// MANIFEST, and only then moves them onto their plain names, so a Save
// stopped at any byte leaves the previous snapshot or the new one, never
// neither and never a mix:
//
//  1. write graph.json.<epoch> and catalog.json.<epoch>, fsync each;
//  2. write MANIFEST.tmp (format version, epoch, each file's name,
//     length and checksum) and fsync it;
//  3. rename MANIFEST.tmp to MANIFEST — the commit point;
//  4. roll forward: rename each epoch file onto its plain name, then
//     fsync the directory.
//
// Load finishes a roll-forward it finds pending and checks both files
// against MANIFEST as it reads them. A directory without MANIFEST (one
// saved before there was one) loads unchecked.
//
// MANIFEST's format version is 2 since graph.json gained its rows
// section: an older build refuses a snapshot it could not read by the
// version, not by an unknown key in graph.json. This build reads both.
const (
	manifestName    = "MANIFEST"
	manifestVersion = 2
)

// snapshotFiles are a snapshot's files, in the order Save and Load
// report their errors.
var snapshotFiles = [2]string{"graph.json", "catalog.json"}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// manifest is MANIFEST's content.
type manifest struct {
	Version int            `json:"version"`
	Epoch   uint64         `json:"epoch"`
	Files   []manifestFile `json:"files"`
}

// manifestFile is one snapshot file as Save wrote it.
type manifestFile struct {
	Name   string `json:"name"`
	Length int64  `json:"length"`
	CRC32C uint32 `json:"crc32c"`
}

// file returns the entry of the named file; readManifest has checked
// that there is exactly one.
func (m *manifest) file(name string) *manifestFile {
	for i := range m.Files {
		if m.Files[i].Name == name {
			return &m.Files[i]
		}
	}
	return nil
}

func epochName(name string, epoch uint64) string {
	return name + "." + strconv.FormatUint(epoch, 10)
}

// snapshotFS is what Save writes a snapshot through and Load finishes a
// pending roll-forward through: the operating system's file system, or
// in tests one that fails or stops at a chosen step.
type snapshotFS interface {
	Create(name string) (snapshotFile, error)
	Rename(oldpath, newpath string) error
	SyncDir(dir string) error
}

// snapshotFile is a file Save writes.
type snapshotFile interface {
	io.Writer
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) Create(name string) (snapshotFile, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Save persists a built system's index and catalog to dir (created if
// absent): graph.json holds the heterogeneous graph, catalog.json the
// native plus SLM-generated tables. Vocabulary is not persisted — the
// loader re-registers it (gazetteers are configuration, not state).
//
// Save replaces the directory's previous snapshot atomically, behind
// MANIFEST (see the protocol above): stopped at any point, it leaves the
// previous snapshot or this one. An error after the commit point means
// this snapshot is the one Load will read, but the directory may not
// yet be durable.
//
// Save may run concurrently with Ask, Query and Ingest: both files are
// written under the read lock Ingest's write lock excludes, so they hold
// the state after one and the same Ingest. Saves into one directory run
// one at a time within a process, whichever System makes them, and a
// Load of it waits for them; Saves from two processes are not
// serialised. The two files are written at once; when both fail, the
// graph's error is the one returned.
func (s *System) Save(dir string) error { return s.save(osFS{}, dir) }

func (s *System) save(fsys snapshotFS, dir string) (err error) {
	defer recoverAs("Save", &err)
	if !s.built {
		return ErrNotBuilt
	}
	unlock, err := lockDir(dir)
	if err != nil {
		return fmt.Errorf("unisem: save: %w", err)
	}
	defer unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("unisem: save: %w", err)
	}
	m := manifest{Version: manifestVersion, Epoch: 1}
	switch prev, err := readManifest(dir); {
	case err != nil:
		return fmt.Errorf("unisem: save: %w", err)
	case prev != nil:
		// Files a killed Save left pending move first, so none lingers
		// under an epoch name once this Save commits.
		if err := rollForward(fsys, dir, prev); err != nil {
			return fmt.Errorf("unisem: save: %w", err)
		}
		m.Epoch = prev.Epoch + 1
	}

	var files [len(snapshotFiles)]*checksummed
	for i, name := range snapshotFiles {
		f, err := fsys.Create(filepath.Join(dir, epochName(name, m.Epoch)))
		if err != nil {
			for _, open := range files[:i] {
				open.Close()
			}
			return fmt.Errorf("unisem: save: %w", err)
		}
		files[i] = &checksummed{snapshotFile: f}
	}
	gerr, cerr := s.hybrid.WriteState(files[0], files[1])
	// Each file is synced once the read lock is released, so an Ingest
	// waits for the bytes, not for the disk; the two syncs run at once.
	par.ForEach(2, 2, func(i int) {
		if i == 0 {
			gerr = files[0].finish(gerr)
		} else {
			cerr = files[1].finish(cerr)
		}
	})
	if gerr != nil {
		return fmt.Errorf("unisem: save graph: %w", gerr)
	}
	if cerr != nil {
		return fmt.Errorf("unisem: save catalog: %w", cerr)
	}

	for i, name := range snapshotFiles {
		m.Files = append(m.Files, manifestFile{Name: name, Length: files[i].n, CRC32C: files[i].crc})
	}
	if err := commitManifest(fsys, dir, &m); err != nil {
		return fmt.Errorf("unisem: save: %w", err)
	}
	if err := rollForward(fsys, dir, &m); err != nil {
		return fmt.Errorf("unisem: save: %w", err)
	}
	return nil
}

// checksummed counts and checksums the bytes written to a file.
type checksummed struct {
	snapshotFile
	n   int64
	crc uint32
}

func (f *checksummed) Write(p []byte) (int, error) {
	n, err := f.snapshotFile.Write(p)
	f.n += int64(n)
	f.crc = crc32.Update(f.crc, castagnoli, p[:n])
	return n, err
}

// finish syncs and closes the file, and returns the first of err, the
// sync's error and the close's.
func (f *checksummed) finish(err error) error {
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// commitManifest writes m to MANIFEST.tmp, syncs it and renames it onto
// MANIFEST.
func commitManifest(fsys snapshotFS, dir string, m *manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(append(data, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return fsys.Rename(tmp, filepath.Join(dir, manifestName))
}

// rollForward renames each of m's epoch files still present onto its
// plain name and, if it renamed any, syncs the directory.
func rollForward(fsys snapshotFS, dir string, m *manifest) error {
	moved := false
	for _, f := range m.Files {
		from := filepath.Join(dir, epochName(f.Name, m.Epoch))
		if _, err := os.Lstat(from); errors.Is(err, fs.ErrNotExist) {
			continue // moved already
		}
		if err := fsys.Rename(from, filepath.Join(dir, f.Name)); err != nil {
			return err
		}
		moved = true
	}
	if !moved {
		return nil
	}
	return fsys.SyncDir(dir)
}

// readManifest reads dir's MANIFEST, nil if there is none.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestName, err)
	}
	if m.Version != 1 && m.Version != manifestVersion {
		return nil, fmt.Errorf("%s: format version %d, this build reads %d", manifestName, m.Version, manifestVersion)
	}
	if len(m.Files) != len(snapshotFiles) || m.file(snapshotFiles[0]) == nil || m.file(snapshotFiles[1]) == nil {
		return nil, fmt.Errorf("%s: lists %d files, want %v", manifestName, len(m.Files), snapshotFiles)
	}
	return &m, nil
}

// Load reconstructs a system saved with Save. The configure callback
// runs before the index attaches, so vocabulary registered there is in
// effect for all queries:
//
//	sys, err := unisem.Load(dir, func(s *unisem.System) {
//	    s.Vocabulary(unisem.VocabProduct, "Product Alpha")
//	})
//
// A panic inside it is an *InternalError, recovered by
// LoadWithOptions, which Load runs.
func Load(dir string, configure func(*System)) (*System, error) {
	return LoadWithOptions(dir, DefaultOptions(), configure)
}

// LoadWithOptions is Load with explicit options. It finishes a
// roll-forward a killed Save left pending, and refuses a file whose
// length or checksum is not the one MANIFEST records with
// ErrSnapshotMismatch. The two files are read at once; when both fail,
// the graph's error is the one returned.
func LoadWithOptions(dir string, opts Options, configure func(*System)) (_ *System, err error) {
	defer recoverAs("Load", &err)
	sys := NewWithOptions(opts)
	if configure != nil {
		configure(sys)
	}
	g, catalog, err := loadState(osFS{}, dir)
	if err != nil {
		return nil, err
	}
	sys.hybrid = core.NewHybridFromState(g, catalog, sys.ner, sys.hybridOptions())
	for _, b := range sys.backends {
		sys.hybrid.RegisterBackend(b)
	}
	sys.built = true
	return sys, nil
}

// dirLocks holds one mutex per snapshot directory, keyed by its cleaned
// absolute path and kept for the life of the process. Save and Load take
// it, so no two Saves of a process pick one epoch, and no Load reads
// files a Save is renaming.
var dirLocks sync.Map

// lockDir locks dir's mutex and returns its unlock.
func lockDir(dir string) (func(), error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mu, _ := dirLocks.LoadOrStore(abs, new(sync.Mutex))
	mu.(*sync.Mutex).Lock()
	return mu.(*sync.Mutex).Unlock, nil
}

// loadState reads the graph and the catalog saved in dir, after it has
// finished a pending roll-forward through fsys.
func loadState(fsys snapshotFS, dir string) (*graph.Graph, *table.Catalog, error) {
	unlock, err := lockDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("unisem: load: %w", err)
	}
	defer unlock()
	m, err := readManifest(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("unisem: load: %w", err)
	}
	if m != nil {
		if err := rollForward(fsys, dir, m); err != nil {
			return nil, nil, fmt.Errorf("unisem: load: %w", err)
		}
	}
	var (
		g          *graph.Graph
		catalog    *table.Catalog
		gerr, cerr error
	)
	par.ForEach(2, 2, func(i int) {
		if i == 0 {
			g, gerr = readFile(dir, "graph", m, graph.ReadJSON)
		} else {
			catalog, cerr = readFile(dir, "catalog", m, table.ReadCatalogJSON)
		}
	})
	if gerr != nil {
		return nil, nil, gerr
	}
	if cerr != nil {
		return nil, nil, cerr
	}
	return g, catalog, nil
}

// readFile reads <what>.json of a saved system with read, checked
// against m's entry for it when there is a manifest.
func readFile[T any](dir, what string, m *manifest, read func(io.Reader) (T, error)) (T, error) {
	name := what + ".json"
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		var none T
		return none, fmt.Errorf("unisem: load: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if m != nil {
		r = &checkedFile{File: f, want: *m.file(name)}
	}
	v, err := read(r)
	if err != nil {
		return v, fmt.Errorf("unisem: load %s: %w", what, err)
	}
	return v, nil
}

// checkedFile checksums a file as it is read and, in place of the end
// of the file, reports ErrSnapshotMismatch unless the bytes read are the
// ones the manifest records. Stat still reaches the file, so a reader
// sizes its buffer from it and reads the file once.
type checkedFile struct {
	*os.File
	want manifestFile
	n    int64
	crc  uint32
}

func (f *checkedFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.n += int64(n)
	f.crc = crc32.Update(f.crc, castagnoli, p[:n])
	switch {
	case f.n > f.want.Length:
		return n, fmt.Errorf("%w: %s is longer than the %d bytes MANIFEST records", ErrSnapshotMismatch, f.want.Name, f.want.Length)
	case err == io.EOF && (f.n != f.want.Length || f.crc != f.want.CRC32C):
		return n, fmt.Errorf("%w: %s is %d bytes with CRC-32C %08x, MANIFEST records %d bytes with %08x",
			ErrSnapshotMismatch, f.want.Name, f.n, f.crc, f.want.Length, f.want.CRC32C)
	}
	return n, err
}
