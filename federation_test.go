package unisem

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/federate"
	"repro/internal/logical"
	"repro/internal/table"
)

// federationQuestions exercise every plan shape through the public
// API: filter, group-by, join, compare, list.
var federationQuestions = []string{
	"What was the revenue of Product Alpha in Q2?",
	"What is the average revenue by product?",
	"Compare revenue of Product Alpha vs Product Beta",
	"Which products had a revenue of more than 1000?",
}

// TestSaveLoadFederatedRoundTrip proves a persisted system answers
// through the federated path exactly like the freshly built one:
// identical answers and identical EXPLAIN plans for every shape.
func TestSaveLoadFederatedRoundTrip(t *testing.T) {
	built := buildDemo(t)
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, func(s *System) {
		s.Vocabulary(VocabProduct, "Product Alpha", "Product Beta")
		s.Vocabulary(VocabDrug, "Drug A")
		s.Vocabulary(VocabSideEffect, "nausea", "fatigue")
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range federationQuestions {
		orig, err := built.Ask(q)
		if err != nil {
			t.Fatalf("%q: built system failed to answer: %v", q, err)
		}
		if orig.Text == "" || orig.Explain() == "" {
			t.Fatalf("%q: built system gave no planned answer (text %q, explain %q)", q, orig.Text, orig.Explain())
		}
		redo, err := loaded.Ask(q)
		if err != nil {
			t.Fatalf("%q: loaded system failed to answer: %v", q, err)
		}
		if orig.Text != redo.Text {
			t.Errorf("%q: loaded answer %q differs from built %q", q, redo.Text, orig.Text)
		}
		if orig.Plan() != redo.Plan() {
			t.Errorf("%q: loaded plan differs:\n%s\nvs\n%s", q, redo.Plan(), orig.Plan())
		}
		if orig.Explain() != redo.Explain() {
			t.Errorf("%q: loaded EXPLAIN differs:\n%s\nvs\n%s", q, redo.Explain(), orig.Explain())
		}
	}
}

// staticBackend serves one fixed table — the minimal external store: it
// pushes filters only, keeps no zone maps and reads the row ranges it
// is handed.
type staticBackend struct {
	tbl *table.Table
}

func (sb staticBackend) Name() string                    { return "static" }
func (sb staticBackend) Tables() []string                { return []string{sb.tbl.Name} }
func (sb staticBackend) CanPush(string, table.Pred) bool { return true }
func (sb staticBackend) CanPushAgg(table.Agg) bool       { return false }
func (sb staticBackend) CanPushSort(table.SortKey) bool  { return false }
func (sb staticBackend) CanProject([]string) bool        { return false }
func (sb staticBackend) Zones(string) *table.Zones       { return nil }
func (sb staticBackend) Estimate(tbl string, preds []table.Pred) (federate.Estimate, bool) {
	if !strings.EqualFold(tbl, sb.tbl.Name) {
		return federate.Estimate{}, false
	}
	n := sb.tbl.Len()
	return federate.Estimate{Total: n, Scanned: n, Out: n, Cost: float64(n)}, true
}
func (sb staticBackend) Scan(_ context.Context, f federate.Fragment) (federate.Result, error) {
	cur, scanned := sb.tbl, sb.tbl.Len()
	if f.Ranges != nil {
		cur, scanned = table.New(sb.tbl.Name, sb.tbl.Schema), table.RowsVisited(f.Ranges, sb.tbl.Len())
		for _, r := range f.Ranges {
			cur.Rows = append(cur.Rows, sb.tbl.Rows[min(r.Start, sb.tbl.Len()):min(r.End, sb.tbl.Len())]...)
		}
	}
	if len(f.Preds) > 0 {
		var err error
		cur, err = table.Filter(cur, f.Preds...)
		if err != nil {
			return federate.Result{}, err
		}
	}
	return federate.Result{Leaf: logical.VecLeaf{Table: cur}, Scanned: scanned}, nil
}

// TestRegisterBackendRoutesExternalTable registers a backend serving a
// table the catalog does not have and checks the planner binds and
// routes to it — the RegisterBackend federation path end to end.
func TestRegisterBackendRoutesExternalTable(t *testing.T) {
	sys := buildDemo(t)

	inv := table.New("latencies", table.Schema{
		{Name: "service", Type: table.TypeString},
		{Name: "latency_ms", Type: table.TypeFloat},
	})
	inv.MustAppend([]table.Value{table.S("api"), table.F(120)})
	inv.MustAppend([]table.Value{table.S("db"), table.F(40)})
	inv.MustAppend([]table.Value{table.S("cache"), table.F(8)})
	sys.RegisterBackend(staticBackend{tbl: inv})

	found := false
	for _, b := range sys.Backends() {
		if b == "static" {
			found = true
		}
	}
	if !found {
		t.Fatalf("backends = %v, want static registered", sys.Backends())
	}

	ans, err := sys.Ask("What is the average latency?")
	if err != nil {
		t.Fatalf("ask over external backend: %v", err)
	}
	if ans.Text != "56" { // (120+40+8)/3
		t.Errorf("answer = %q, want 56", ans.Text)
	}
	if !strings.Contains(ans.Explain(), "backend=static") {
		t.Errorf("EXPLAIN does not route to the external backend:\n%s", ans.Explain())
	}

	// A backend without zone maps is handed a row slice as Ranges.
	res, err := sys.Query("SELECT service FROM latencies ROWS 1 TO 2")
	if err != nil {
		t.Fatalf("row-sliced query over external backend: %v", err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[db]]" {
		t.Errorf("rows = %s, want [[db]]", got)
	}
}

// TestExplainExposedThroughPublicAPI pins the public Answer.Explain
// surface used by uniquery -explain.
func TestExplainExposedThroughPublicAPI(t *testing.T) {
	sys := buildDemo(t)
	ans, err := sys.Ask("What was the revenue of Product Alpha in Q2?")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"logical:", "physical:", "backend=", "est: scan", "actual: scan"} {
		if !strings.Contains(ans.Explain(), want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, ans.Explain())
		}
	}
}
