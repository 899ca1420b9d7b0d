package unisem

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/table"
)

// Save persists a built system's index and catalog to dir (created if
// absent): graph.json holds the heterogeneous graph, catalog.json the
// native plus SLM-generated tables. Vocabulary is not persisted — the
// loader re-registers it (gazetteers are configuration, not state).
//
// Save may run concurrently with Ask, Query and Ingest: both files are
// written under the read lock Ingest's write lock excludes, so they hold
// the state after one and the same Ingest. The two files are written at
// once; when both fail, the graph's error is the one returned.
func (s *System) Save(dir string) error {
	if !s.built {
		return ErrNotBuilt
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("unisem: save: %w", err)
	}
	gf, err := os.Create(filepath.Join(dir, "graph.json"))
	if err != nil {
		return fmt.Errorf("unisem: save: %w", err)
	}
	defer gf.Close() // the error paths; the success path has checked Close
	cf, err := os.Create(filepath.Join(dir, "catalog.json"))
	if err != nil {
		return fmt.Errorf("unisem: save: %w", err)
	}
	defer cf.Close()
	gerr, cerr := s.hybrid.WriteState(gf, cf)
	// Per file, the first of write, flush and close.
	if err := gf.Close(); gerr == nil {
		gerr = err
	}
	if err := cf.Close(); cerr == nil {
		cerr = err
	}
	if gerr != nil {
		return fmt.Errorf("unisem: save graph: %w", gerr)
	}
	if cerr != nil {
		return fmt.Errorf("unisem: save catalog: %w", cerr)
	}
	return nil
}

// Load reconstructs a system saved with Save. The configure callback
// runs before the index attaches, so vocabulary registered there is in
// effect for all queries:
//
//	sys, err := unisem.Load(dir, func(s *unisem.System) {
//	    s.Vocabulary(unisem.VocabProduct, "Product Alpha")
//	})
func Load(dir string, configure func(*System)) (*System, error) {
	return LoadWithOptions(dir, DefaultOptions(), configure)
}

// LoadWithOptions is Load with explicit options. The two files are read
// at once; when both fail, the graph's error is the one returned.
func LoadWithOptions(dir string, opts Options, configure func(*System)) (*System, error) {
	sys := NewWithOptions(opts)
	if configure != nil {
		configure(sys)
	}
	var catalog *table.Catalog
	var cerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		catalog, cerr = readFile(dir, "catalog", table.ReadCatalogJSON)
	}()
	g, gerr := readFile(dir, "graph", graph.ReadJSON)
	<-done
	if gerr != nil {
		return nil, gerr
	}
	if cerr != nil {
		return nil, cerr
	}

	sys.hybrid = core.NewHybridFromState(g, catalog, sys.ner, sys.hybridOptions())
	for _, b := range sys.backends {
		sys.hybrid.RegisterBackend(b)
	}
	sys.built = true
	return sys, nil
}

// readFile reads <what>.json of a saved system with read.
func readFile[T any](dir, what string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(filepath.Join(dir, what+".json"))
	if err != nil {
		var none T
		return none, fmt.Errorf("unisem: load: %w", err)
	}
	defer f.Close()
	v, err := read(f)
	if err != nil {
		return v, fmt.Errorf("unisem: load %s: %w", what, err)
	}
	return v, nil
}
