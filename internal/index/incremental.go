package index

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/store"
)

// ErrDocExists reports an incremental ingest of an id that is already
// indexed; re-indexing in place would duplicate edges.
var ErrDocExists = fmt.Errorf("index: document already indexed")

// IndexRecord indexes one record into an existing graph — the
// incremental path behind the paper's "real-time data analytics"
// future-work direction. Text records are chunked, tagged and
// cue-linked exactly as in a batch build; relational cues materialize
// per document, which gives the batch result.
//
// Returns the per-record stats delta plus refreshed graph totals. The
// graph must not be read concurrently with an IndexRecord call.
func (b *Builder) IndexRecord(g *graph.Graph, rec store.Record) (Stats, error) {
	var stats Stats
	if rec.Kind == store.KindText && g.HasNode("doc:"+rec.ID) {
		return stats, fmt.Errorf("%w: %s", ErrDocExists, rec.ID)
	}
	if rec.Kind != store.KindText && g.HasNode("row:"+rec.ID) {
		return stats, fmt.Errorf("%w: %s", ErrDocExists, rec.ID)
	}
	an := b.analyzeRecord(rec)
	if rec.Kind == store.KindText {
		cueCounts := make(map[string]int)
		if err := b.applyDocument(g, rec, an, cueCounts, &stats); err != nil {
			return stats, fmt.Errorf("index: incremental: %w", err)
		}
		if !b.opts.DisableCues && !b.opts.DisableEntityNodes {
			b.materializeCues(g, cueCounts, &stats)
		}
	} else {
		if err := b.applyRecord(g, rec, an, nil, &stats); err != nil {
			return stats, fmt.Errorf("index: incremental: %w", err)
		}
	}
	stats.Nodes = g.NodeCount()
	stats.Edges = g.EdgeCount()
	stats.Entities = g.CountByType()[graph.NodeEntity]
	stats.SizeBytes = g.SizeBytes()
	return stats, nil
}
