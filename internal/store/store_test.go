package store

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/table"
)

func TestTextStore(t *testing.T) {
	s := NewTextStore("notes")
	s.Add("n1", "Patient reported fatigue.")
	s.Add("n2", "Dose was increased.")
	s.Add("n1", "Patient reported severe fatigue.") // replace

	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
	if s.Kind() != KindText || s.Name() != "notes" {
		t.Error("metadata wrong")
	}
	recs := s.Records()
	if len(recs) != 2 || recs[0].ID != "n1" {
		t.Fatalf("records = %v", recs)
	}
	if !strings.Contains(recs[0].Text, "severe") {
		t.Error("replacement not applied")
	}
	if recs[1].ID != "n2" || recs[1].Text != "Dose was increased." {
		t.Errorf("second record = %+v", recs[1])
	}
}

func TestJSONStoreLoadLines(t *testing.T) {
	input := `{"id":"e1","level":"error","latency_ms":120,"ctx":{"region":"eu","retry":true}}
{"id":"e2","level":"info","latency_ms":8.5,"tags":["a","b"]}`
	s := NewJSONStore("logs")
	if err := s.LoadLines(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	recs := s.Records()
	if recs[0].ID != "logs/e1" {
		t.Errorf("id = %q", recs[0].ID)
	}
	f := recs[0].Fields
	if f["ctx.region"] != "eu" || f["ctx.retry"] != "true" || f["latency_ms"] != "120" {
		t.Errorf("fields = %v", f)
	}
	if recs[1].Fields["tags[0]"] != "a" {
		t.Errorf("array flatten: %v", recs[1].Fields)
	}
	if recs[1].Fields["latency_ms"] != "8.5" {
		t.Errorf("float format: %v", recs[1].Fields["latency_ms"])
	}
	if !strings.Contains(recs[0].Text, "level is error") {
		t.Errorf("text render: %q", recs[0].Text)
	}
}

func TestJSONStoreParseError(t *testing.T) {
	s := NewJSONStore("bad")
	err := s.LoadLines(strings.NewReader(`{"ok":1}` + "\n" + `{broken`))
	if !errors.Is(err, ErrParse) {
		t.Errorf("err = %v", err)
	}
}

func TestJSONStoreNullField(t *testing.T) {
	s := NewJSONStore("logs")
	if err := s.LoadLines(strings.NewReader(`{"a":null,"b":1}`)); err != nil {
		t.Fatal(err)
	}
	rec := s.Records()[0]
	if v, ok := rec.Fields["a"]; !ok || v != "" {
		t.Errorf("null field: %v", rec.Fields)
	}
	if strings.Contains(rec.Text, "a is") {
		t.Errorf("empty field rendered: %q", rec.Text)
	}
}

func TestXMLStore(t *testing.T) {
	input := `<config>
  <service id="svc1"><host>db1.local</host><port>5432</port></service>
  <service id="svc2"><host>db2.local</host><port>5433</port></service>
</config>`
	s := NewXMLStore("conf")
	if err := s.Load(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d: %v", s.Len(), s.Records())
	}
	recs := s.Records()
	if recs[0].ID != "conf/svc1" {
		t.Errorf("id = %q", recs[0].ID)
	}
	if recs[0].Fields["service.host"] != "db1.local" {
		t.Errorf("fields = %v", recs[0].Fields)
	}
	if recs[0].Fields["service.@id"] != "svc1" {
		t.Errorf("attr flatten: %v", recs[0].Fields)
	}
}

func TestXMLStoreLeafRoot(t *testing.T) {
	s := NewXMLStore("conf")
	if err := s.Load(strings.NewReader(`<flag>enabled</flag>`)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Records()[0].Fields["flag"] != "enabled" {
		t.Errorf("records = %v", s.Records())
	}
}

func TestXMLStoreParseError(t *testing.T) {
	s := NewXMLStore("bad")
	if err := s.Load(strings.NewReader("<unclosed>")); !errors.Is(err, ErrParse) {
		t.Errorf("err = %v", err)
	}
}

func relCatalog(t *testing.T) *table.Catalog {
	t.Helper()
	c := table.NewCatalog()
	tbl := table.New("sales", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "revenue", Type: table.TypeFloat},
	})
	tbl.MustAppend([]table.Value{table.S("Alpha"), table.F(120)})
	tbl.MustAppend([]table.Value{table.S("Beta"), table.Null(table.TypeFloat)})
	c.Put(tbl)
	return c
}

func TestRelationalStore(t *testing.T) {
	s := NewRelationalStore("db", relCatalog(t))
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
	recs := s.Records()
	if recs[0].ID != "db/sales/0" {
		t.Errorf("id = %q", recs[0].ID)
	}
	if recs[1].ID != "db/sales/1" {
		t.Errorf("id = %q", recs[1].ID)
	}
	if recs[0].Text != "product is Alpha. revenue is 120." {
		t.Errorf("text = %q", recs[0].Text)
	}
	if recs[1].Text != "product is Beta." {
		t.Errorf("text = %q: a NULL cell says nothing", recs[1].Text)
	}
	for _, r := range recs {
		if r.Source != "db" || r.Kind != KindRelational || r.Fields != nil {
			t.Errorf("record = %+v: want source db, kind relational, no fields", r)
		}
	}
	if s.Catalog() == nil {
		t.Error("catalog accessor nil")
	}
}

func TestMulti(t *testing.T) {
	txt := NewTextStore("notes")
	txt.Add("n1", "text one.")
	rel := NewRelationalStore("db", relCatalog(t))
	m := NewMulti().Add(txt).Add(rel)
	if m.Len() != 3 {
		t.Errorf("multi len = %d", m.Len())
	}
	if len(m.Records()) != 3 {
		t.Errorf("multi records = %d", len(m.Records()))
	}
	if len(m.Sources()) != 2 {
		t.Errorf("sources = %d", len(m.Sources()))
	}
}

func TestFieldsToTextDeterministic(t *testing.T) {
	f := map[string]string{"b": "2", "a": "1", "c": "3"}
	if fieldsToText(f) != fieldsToText(f) {
		t.Error("not deterministic")
	}
	if got := fieldsToText(f); !strings.HasPrefix(got, "a is 1. b is 2") {
		t.Errorf("order: %q", got)
	}
}
