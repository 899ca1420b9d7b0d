package core

import (
	"testing"

	"repro/internal/slm"
	"repro/internal/workload"
)

// The ops corpus exercises the semi-structured path: JSON logs
// materialize into typed tables that semantic operators aggregate over.
func TestHybridOpsAnswers(t *testing.T) {
	c := workload.Ops(workload.DefaultOpsOptions())
	ner := slm.NewNER()
	c.Register(ner)
	h, err := NewHybrid(c.Sources, ner, DefaultHybridOptions())
	if err != nil {
		t.Fatal(err)
	}
	// JSON logs became a catalog table.
	if _, err := h.Catalog().Get("logs"); err != nil {
		t.Fatalf("logs table missing: %v (catalog %v)", err, h.Catalog().Names())
	}
	// XML deploy config became a catalog table too.
	if _, err := h.Catalog().Get("deploy"); err != nil {
		t.Fatalf("deploy table missing: %v", err)
	}
	for _, q := range c.Queries {
		ans := h.Answer(q.Text)
		if !ans.Answered() {
			t.Errorf("[%s] %q unanswered: %v", q.Class, q.Text, ans.Err)
			continue
		}
		if ans.Text != q.Gold {
			t.Errorf("[%s] %q:\n  got  %q\n  want %q\n  plan %s", q.Class, q.Text, ans.Text, q.Gold, ans.Plan())
		}
	}
}

func TestOpsDeterministic(t *testing.T) {
	a := workload.Ops(workload.DefaultOpsOptions())
	b := workload.Ops(workload.DefaultOpsOptions())
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("query counts differ")
	}
	for i := range a.Queries {
		if a.Queries[i].Gold != b.Queries[i].Gold {
			t.Fatal("ops not deterministic")
		}
	}
}
