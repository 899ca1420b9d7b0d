package unisem

import (
	"fmt"
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
	defer gf.Close()
	if err := s.hybrid.Graph().WriteJSON(gf); err != nil {
		return fmt.Errorf("unisem: save graph: %w", err)
	}
	cf, err := os.Create(filepath.Join(dir, "catalog.json"))
	if err != nil {
		return fmt.Errorf("unisem: save: %w", err)
	}
	defer cf.Close()
	if err := s.hybrid.Catalog().WriteJSON(cf); err != nil {
		return fmt.Errorf("unisem: save catalog: %w", err)
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

// LoadWithOptions is Load with explicit options.
func LoadWithOptions(dir string, opts Options, configure func(*System)) (*System, error) {
	sys := NewWithOptions(opts)
	if configure != nil {
		configure(sys)
	}
	gf, err := os.Open(filepath.Join(dir, "graph.json"))
	if err != nil {
		return nil, fmt.Errorf("unisem: load: %w", err)
	}
	defer gf.Close()
	g, err := graph.ReadJSON(gf)
	if err != nil {
		return nil, fmt.Errorf("unisem: load graph: %w", err)
	}
	cf, err := os.Open(filepath.Join(dir, "catalog.json"))
	if err != nil {
		return nil, fmt.Errorf("unisem: load: %w", err)
	}
	defer cf.Close()
	catalog, err := table.ReadCatalogJSON(cf)
	if err != nil {
		return nil, fmt.Errorf("unisem: load catalog: %w", err)
	}

	sys.hybrid = core.NewHybridFromState(g, catalog, sys.ner, sys.hybridOptions())
	for _, b := range sys.backends {
		sys.hybrid.RegisterBackend(b)
	}
	sys.built = true
	return sys, nil
}
