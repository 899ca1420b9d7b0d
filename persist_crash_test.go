package unisem

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var (
	errFault  = errors.New("injected fault")
	errKilled = errors.New("process killed")
)

// step is one operation Save or Load makes through its file system: a create,
// sync or close of a file, a rename (name is the source), a directory
// sync, or the write that carries a file past byte off.
type step struct {
	op   string
	name string // base name
	off  int64  // write only
}

func (s step) String() string {
	if s.op == "write" {
		return fmt.Sprintf("write %s at byte %d", s.name, s.off)
	}
	return s.op + " " + s.name
}

// faultFS is the operating system's file system with one fault planted:
// the step at fails — a write after taking the bytes before off — and,
// with kill set, every step after it fails without running, as when the
// process stops there. The bytes written before stay, as a killed
// process's do. With no fault planted it records the steps Save makes
// and the bytes each file takes.
type faultFS struct {
	at   *step
	kill bool

	mu      sync.Mutex
	fired   bool
	steps   []step
	written map[string]int64
}

// enter runs the bookkeeping of a step other than a write: it reports
// the error the step fails with, if any.
func (f *faultFS) enter(s step) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fired && f.kill {
		return errKilled
	}
	f.steps = append(f.steps, s)
	if f.at != nil && *f.at == s {
		f.fired = true
		return errFault
	}
	return nil
}

func (f *faultFS) Create(name string) (snapshotFile, error) {
	if err := f.enter(step{op: "create", name: filepath.Base(name)}); err != nil {
		return nil, err
	}
	file, err := osFS{}.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{snapshotFile: file, fs: f, name: filepath.Base(name)}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.enter(step{op: "rename", name: filepath.Base(oldpath)}); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func (f *faultFS) SyncDir(dir string) error {
	if err := f.enter(step{op: "syncdir"}); err != nil {
		return err
	}
	return osFS{}.SyncDir(dir)
}

type faultFile struct {
	snapshotFile
	fs   *faultFS
	name string
	n    int64
}

func (w *faultFile) Write(p []byte) (int, error) {
	f := w.fs
	f.mu.Lock()
	if f.fired && f.kill {
		f.mu.Unlock()
		return 0, errKilled
	}
	take, err := int64(len(p)), error(nil)
	if at := f.at; at != nil && at.op == "write" && at.name == w.name && w.n+take > at.off {
		take, err = at.off-w.n, errFault
		f.fired = true
	}
	if f.written == nil {
		f.written = map[string]int64{}
	}
	f.written[w.name] += take
	f.mu.Unlock()
	n, werr := w.snapshotFile.Write(p[:take])
	w.n += int64(n)
	if werr != nil {
		return n, werr
	}
	return n, err
}

func (w *faultFile) Sync() error {
	if err := w.fs.enter(step{op: "sync", name: w.name}); err != nil {
		return err
	}
	return w.snapshotFile.Sync()
}

func (w *faultFile) Close() error {
	err := w.fs.enter(step{op: "close", name: w.name})
	if cerr := w.snapshotFile.Close(); err == nil { // a killed process's files close too
		err = cerr
	}
	return err
}

// buildTiny is the smallest system that has both a graph and a table:
// its snapshot is a few kilobytes, so a fault can be planted at every
// byte of it.
func buildTiny(t *testing.T) *System {
	t.Helper()
	sys := New()
	sys.Vocabulary(VocabProduct, "Product Alpha")
	if err := sys.AddDocument("reviews", "r1", "Customer C-1 rated Product Alpha 5 stars."); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddCSV("sales", strings.NewReader("product,revenue\nProduct Alpha,1200\n")); err != nil {
		t.Fatal(err)
	}
	if err := sys.Build(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// copyDir copies the files of src into a new directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestSaveCrashConsistency stops a Save of a second snapshot over a
// first at every step it makes through the file system — every create,
// sync, close and rename, the directory sync, and every byte of each
// file it writes — once with the step failing and Save going on to
// report it, once with the process killed there. Save reports the
// fault, and the directory then loads either the first snapshot or the
// second, never neither and never a mix of the two: the first up to
// MANIFEST's rename, the second from then on. After a failed (not
// killed) Save, the next Save succeeds and leaves nothing of the failed
// one behind.
func TestSaveCrashConsistency(t *testing.T) {
	sys := buildTiny(t)
	base := t.TempDir()
	if err := sys.Save(base); err != nil {
		t.Fatal(err)
	}
	oldG, oldC := readSnapshot(t, base)
	if err := sys.Ingest("reviews", "r2", "Customer C-2 rated Product Alpha 2 stars."); err != nil {
		t.Fatal(err)
	}
	ref := t.TempDir()
	if err := sys.Save(ref); err != nil {
		t.Fatal(err)
	}
	newG, newC := readSnapshot(t, ref)

	// outcome loads dir and names the snapshot it holds.
	outcome := func(dir string) string {
		t.Helper()
		if _, _, err := loadState(osFS{}, dir); err != nil {
			return "neither: " + err.Error()
		}
		switch g, c := readSnapshot(t, dir); {
		case g == oldG && c == oldC:
			return "old"
		case g == newG && c == newC:
			return "new"
		case g == oldG || g == newG:
			return "a mix"
		}
		return "neither"
	}

	rec := &faultFS{}
	if err := sys.save(rec, copyDir(t, base)); err != nil {
		t.Fatal(err)
	}
	faults := slices.Clone(rec.steps)
	commit := slices.Index(faults, step{op: "rename", name: manifestName + ".tmp"})
	if commit < 0 {
		t.Fatalf("no MANIFEST rename among %v", rec.steps)
	}
	for _, name := range []string{epochName("graph.json", 2), epochName("catalog.json", 2), manifestName + ".tmp"} {
		if rec.written[name] == 0 {
			t.Fatalf("%s: no bytes written, of %v", name, rec.written)
		}
		for off := range rec.written[name] {
			faults = append(faults, step{op: "write", name: name, off: off})
		}
	}
	if got := len(faults) - len(rec.steps); got > 20000 {
		t.Fatalf("%d byte offsets: the snapshot is no longer small", got)
	}

	// A fault in a write comes before the commit point, so the faults in
	// one file's writes share a directory: what each leaves behind is
	// there for the next to meet.
	var writeDir string
	for i, at := range faults {
		want := "old"
		if i > commit && i < len(rec.steps) {
			want = "new"
		}
		for _, kill := range []bool{true, false} { // a failed Save is followed by the next, below
			dir := writeDir
			if at.op != "write" || at.off == 0 {
				dir = copyDir(t, base)
			}
			if at.op == "write" {
				writeDir = dir
			}
			err := sys.save(&faultFS{at: &at, kill: kill}, dir)
			if !errors.Is(err, errFault) && !(kill && errors.Is(err, errKilled)) {
				t.Fatalf("%v (kill %v): Save returned %v", at, kill, err)
			}
			if got := outcome(dir); got != want {
				t.Fatalf("%v (kill %v): the directory holds %s, want %s", at, kill, got, want)
			}
			// The next Save syncs three files and the directory: it runs
			// after each step other than a write, and after a file's last
			// byte.
			if kill || at.op == "write" && at.off < rec.written[at.name]-1 {
				continue
			}
			if err := sys.Save(dir); err != nil {
				t.Fatalf("%v: the Save after the failed one: %v", at, err)
			}
			if got := outcome(dir); got != "new" {
				t.Fatalf("%v: after the next Save the directory holds %s", at, got)
			}
			if got := dirNames(t, dir); !slices.Equal(got, snapshotDir) {
				t.Fatalf("%v: after the next Save the directory holds %v, want %v", at, got, snapshotDir)
			}
		}
	}
	t.Logf("%d steps (commit at %d), %d byte offsets", len(rec.steps), commit, len(faults)-len(rec.steps))
}

// TestLoadRollForwardConsistency stops the roll-forward Load finishes
// for a Save killed just after its commit point — at each rename and at
// the directory sync, once with the step failing and once with the
// process killed there. Load reports the fault, and the next Load reads
// the new snapshot whole, never the old one and never a mix of the two,
// and leaves nothing under an epoch name.
func TestLoadRollForwardConsistency(t *testing.T) {
	sys := buildTiny(t)
	base := t.TempDir()
	if err := sys.Save(base); err != nil {
		t.Fatal(err)
	}
	oldG, oldC := readSnapshot(t, base)
	if err := sys.Ingest("reviews", "r2", "Customer C-2 rated Product Alpha 2 stars."); err != nil {
		t.Fatal(err)
	}
	ref := t.TempDir()
	if err := sys.Save(ref); err != nil {
		t.Fatal(err)
	}
	newG, newC := readSnapshot(t, ref)

	// The first step after the commit point is the first roll-forward
	// rename: killed there, Save leaves both files to Load.
	pending := copyDir(t, base)
	first := step{op: "rename", name: epochName("graph.json", 2)}
	if err := sys.save(&faultFS{at: &first, kill: true}, pending); !errors.Is(err, errFault) {
		t.Fatalf("Save killed at %v: %v", first, err)
	}
	if m, err := readManifest(pending); err != nil || m == nil || m.Epoch != 2 {
		t.Fatalf("the killed Save did not commit: %v, %v", m, err)
	}

	// loaded names what a Load of dir reads, from the state it returns:
	// the graph and catalog it built, written out again.
	loaded := func(dir string) string {
		t.Helper()
		g, c, err := loadState(osFS{}, dir)
		if err != nil {
			return "neither: " + err.Error()
		}
		var gb, cb strings.Builder
		if err := g.WriteJSON(&gb); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteJSON(&cb); err != nil {
			t.Fatal(err)
		}
		switch gs, cs := gb.String(), cb.String(); {
		case gs == newG && cs == newC:
			return "new"
		case gs == oldG && cs == oldC:
			return "old"
		case gs == oldG || gs == newG || cs == oldC || cs == newC:
			return "a mix"
		}
		return "neither"
	}

	rec := &faultFS{}
	if got := func() string {
		dir := copyDir(t, pending)
		if _, _, err := loadState(rec, dir); err != nil {
			t.Fatal(err)
		}
		return loaded(dir)
	}(); got != "new" {
		t.Fatalf("a Load after the killed Save reads %s", got)
	}
	want := []step{first, {op: "rename", name: epochName("catalog.json", 2)}, {op: "syncdir"}}
	if !slices.Equal(rec.steps, want) {
		t.Fatalf("Load's roll-forward makes the steps %v, want %v", rec.steps, want)
	}
	for _, at := range want {
		for _, kill := range []bool{true, false} {
			dir := copyDir(t, pending)
			if _, _, err := loadState(&faultFS{at: &at, kill: kill}, dir); !errors.Is(err, errFault) {
				t.Fatalf("%v (kill %v): Load returned %v", at, kill, err)
			}
			if got := loaded(dir); got != "new" {
				t.Fatalf("%v (kill %v): the next Load reads %s, want new", at, kill, got)
			}
			if got := dirNames(t, dir); !slices.Equal(got, snapshotDir) {
				t.Fatalf("%v (kill %v): after the next Load the directory holds %v, want %v", at, kill, got, snapshotDir)
			}
		}
	}
}

// TestSaveSerialised runs Saves of two Systems with different data into
// one directory at once, the second naming it by another spelling of
// the same path: each Save takes the next epoch, none collides with
// another, and the directory loads the snapshot one of them wrote, whole.
func TestSaveSerialised(t *testing.T) {
	other := New()
	if err := other.AddCSV("sales", strings.NewReader("product,revenue\nProduct Beta,900\n")); err != nil {
		t.Fatal(err)
	}
	if err := other.Build(); err != nil {
		t.Fatal(err)
	}
	systems := []*System{buildTiny(t), other}
	var want [2][2]string // each System's graph.json and catalog.json
	for i, sys := range systems {
		ref := t.TempDir()
		if err := sys.Save(ref); err != nil {
			t.Fatal(err)
		}
		want[i][0], want[i][1] = readSnapshot(t, ref)
	}
	dir := t.TempDir()
	spellings := []string{dir, dir + string(filepath.Separator) + "."}
	const saves = 8 // per System
	var wg sync.WaitGroup
	for range saves {
		for i, sys := range systems {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := sys.Save(spellings[i]); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	m, err := readManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("MANIFEST: %v, %v", m, err)
	}
	if m.Epoch != uint64(saves*len(systems)) {
		t.Errorf("epoch %d after %d saves", m.Epoch, saves*len(systems))
	}
	if _, _, err := loadState(osFS{}, dir); err != nil {
		t.Fatal(err)
	}
	if g, c := readSnapshot(t, dir); [2]string{g, c} != want[0] && [2]string{g, c} != want[1] {
		t.Error("the directory holds another snapshot than either System wrote")
	}
	if got := dirNames(t, dir); !slices.Equal(got, snapshotDir) {
		t.Errorf("directory holds %v, want %v", got, snapshotDir)
	}
}

// snapshotDir is what a directory holds after a Save that succeeded.
var snapshotDir = []string{manifestName, "catalog.json", "graph.json"}

// dirNames lists dir's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestLoadRefusesMismatch: a file whose bytes are not the ones MANIFEST
// records — of another length, or of the same length with one byte
// changed — is refused with ErrSnapshotMismatch, as is a manifest of
// another format version; a directory without MANIFEST loads unchecked.
func TestLoadRefusesMismatch(t *testing.T) {
	good := t.TempDir()
	if err := buildTiny(t).Save(good); err != nil {
		t.Fatal(err)
	}
	g, c := readSnapshot(t, good)
	flip := func(s string) string { return s[:len(s)/2] + string(s[len(s)/2]^1) + s[len(s)/2+1:] }
	for _, tc := range []struct {
		name, file, content string
	}{
		{"graph truncated", "graph.json", g[:len(g)-1]},
		{"graph extended", "graph.json", g + " "},
		{"graph byte changed", "graph.json", flip(g)},
		{"catalog truncated", "catalog.json", c[:len(c)/2]},
		{"catalog extended", "catalog.json", c + "\n"},
		{"catalog byte changed", "catalog.json", flip(c)},
		{"catalog emptied", "catalog.json", ""},
	} {
		dir := copyDir(t, good)
		if err := os.WriteFile(filepath.Join(dir, tc.file), []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, nil); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, ErrSnapshotMismatch)
		}
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, nil); errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s without MANIFEST: err = %v", tc.name, err)
		}
	}
	for _, manifest := range []string{
		`{"version":2,"epoch":1,"files":[]}`,
		`{"version":1,"epoch":1,"files":[{"name":"graph.json"}]}`,
		`{"version":1,"epoch":1,"files":[{"name":"graph.json"},{"name":"graph.json"}]}`,
		`{bad`,
	} {
		dir := copyDir(t, good)
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, nil); err == nil || !strings.HasPrefix(err.Error(), "unisem: load: MANIFEST: ") {
			t.Errorf("MANIFEST %s: err = %v", manifest, err)
		}
		if err := buildTiny(t).Save(dir); err == nil {
			t.Errorf("MANIFEST %s: Save wrote over it", manifest)
		}
	}
}
