package semop

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/slm"
	"repro/internal/table"
	"repro/internal/workload"
)

func testNER() *slm.NER {
	n := slm.NewNER()
	n.AddGazetteer(slm.EntProduct, "Product Alpha", "Product Beta")
	n.AddGazetteer(slm.EntDrug, "Drug A", "Drug B")
	return n
}

func testCatalog() *table.Catalog {
	c := table.NewCatalog()

	sales := table.New("product_sales", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "quarter", Type: table.TypeString},
		{Name: "units", Type: table.TypeInt},
	})
	sales.MustAppend([]table.Value{table.S("Product Alpha"), table.S("Q2"), table.I(40)})
	sales.MustAppend([]table.Value{table.S("Product Alpha"), table.S("Q3"), table.I(50)})
	sales.MustAppend([]table.Value{table.S("Product Beta"), table.S("Q2"), table.I(20)})
	sales.MustAppend([]table.Value{table.S("Product Beta"), table.S("Q3"), table.I(25)})
	c.Put(sales)

	ratings := table.New("ratings", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "stars", Type: table.TypeFloat},
	})
	ratings.MustAppend([]table.Value{table.S("Product Alpha"), table.F(4.5)})
	ratings.MustAppend([]table.Value{table.S("Product Beta"), table.F(3.0)})
	ratings.MustAppend([]table.Value{table.S("Product Beta"), table.F(4.0)})
	c.Put(ratings)

	changes := table.New("metric_changes", table.Schema{
		{Name: "quarter", Type: table.TypeString},
		{Name: "metric", Type: table.TypeString},
		{Name: "change_pct", Type: table.TypeFloat},
	})
	changes.MustAppend([]table.Value{table.S("Q2"), table.S("sales"), table.F(20)})
	changes.MustAppend([]table.Value{table.S("Q3"), table.S("sales"), table.F(10)})
	c.Put(changes)

	return c
}

// Space around a question changes nothing: its first word still cues
// a comparison or a list.
func TestParseIgnoresSurroundingSpace(t *testing.T) {
	for _, question := range []string{
		"Compare total sales for Product Alpha and Product Beta in Q2",
		"Which side effects were reported for Drug A?",
	} {
		want := Parse(question, testNER())
		got := Parse("  "+question+"\t", testNER())
		if got.Intent != want.Intent || len(got.Compare) != len(want.Compare) || got.Metric != want.Metric {
			t.Errorf("padded %q: intent %v compare %v metric %q, want %v %v %q",
				question, got.Intent, got.Compare, got.Metric, want.Intent, want.Compare, want.Metric)
		}
	}
}

// Parse is ParseTagged over the recognizer's tags: for every generator
// question of both corpora the two frames are equal.
func TestParseTaggedMatchesParse(t *testing.T) {
	for _, c := range []*workload.Corpus{
		workload.ECommerce(workload.DefaultECommerceOptions()),
		workload.Healthcare(workload.DefaultHealthcareOptions()),
	} {
		ner := slm.NewNER()
		c.Register(ner)
		for _, q := range c.Queries {
			if got, want := ParseTagged(q.Text, ner.Recognize(q.Text)), Parse(q.Text, ner); !reflect.DeepEqual(got, want) {
				t.Errorf("%q: ParseTagged %+v, Parse %+v", q.Text, got, want)
			}
		}
	}
}

func TestParseAggregateIntent(t *testing.T) {
	q := Parse("Find the total sales of all products in Q3", testNER())
	if q.Intent != IntentAggregate || !q.HasAgg || q.AggFunc != table.AggSum {
		t.Errorf("frame = %+v", q)
	}
	if q.Metric != "sales" {
		t.Errorf("metric = %q", q.Metric)
	}
	foundQ3 := false
	for _, c := range q.Conditions {
		if c.Field == "quarter" && c.Value.Str() == "Q3" {
			foundQ3 = true
		}
	}
	if !foundQ3 {
		t.Errorf("conditions = %v", q.Conditions)
	}
}

func TestParseAverage(t *testing.T) {
	q := Parse("What is the average rating of Product Beta?", testNER())
	if q.AggFunc != table.AggAvg || q.Metric != "rating" {
		t.Errorf("frame = %+v", q)
	}
}

func TestParseCount(t *testing.T) {
	q := Parse("How many patients reported side effects?", testNER())
	if q.AggFunc != table.AggCount {
		t.Errorf("frame = %+v", q)
	}
}

func TestParseCompareIntent(t *testing.T) {
	q := Parse("Compare sales for Product Alpha and Product Beta in Q2", testNER())
	if q.Intent != IntentCompare {
		t.Fatalf("intent = %v", q.Intent)
	}
	if len(q.Compare) != 2 {
		t.Errorf("compare items = %v", q.Compare)
	}
}

func TestParseThreshold(t *testing.T) {
	q := Parse("Which products had a sales increase of more than 15% in the last quarter?", testNER())
	found := false
	for _, c := range q.Conditions {
		if c.Field == "change_pct" && c.Op == table.OpGt && c.Value.Float() == 15 {
			found = true
		}
	}
	if !found {
		t.Errorf("conditions = %v", q.Conditions)
	}
}

func TestParseGroupBy(t *testing.T) {
	q := Parse("Compare the average ratings of products from different manufacturers", testNER())
	if q.GroupBy != "manufacturer" {
		t.Errorf("groupBy = %q", q.GroupBy)
	}
	q2 := Parse("total sales by quarter", testNER())
	if q2.GroupBy != "quarter" {
		t.Errorf("groupBy = %q", q2.GroupBy)
	}
}

func TestParseListIntent(t *testing.T) {
	q := Parse("List products rated above 4 stars", testNER())
	if q.Intent != IntentList {
		t.Errorf("intent = %v", q.Intent)
	}
}

func TestParseLookupFallback(t *testing.T) {
	q := Parse("tell me something", testNER())
	if q.Intent != IntentLookup {
		t.Errorf("intent = %v", q.Intent)
	}
}

func TestIntentString(t *testing.T) {
	if IntentAggregate.String() != "aggregate" || Intent(9).String() != "unknown" {
		t.Error("Intent.String broken")
	}
}

func TestBindAndExecTotalSales(t *testing.T) {
	c := testCatalog()
	q := Parse("Find the total sales of all products in Q3", testNER())
	p, err := Bind(q, c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Table != "product_sales" || p.MetricCol != "units" {
		t.Errorf("binding = %+v", p)
	}
	res, err := Exec(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Float() != 75 {
		t.Errorf("result:\n%s", res)
	}
}

func TestBindAndExecAverageRating(t *testing.T) {
	c := testCatalog()
	q := Parse("What is the average rating of Product Beta?", testNER())
	p, err := Bind(q, c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Float() != 3.5 {
		t.Errorf("result:\n%s", res)
	}
}

func TestBindAndExecCompare(t *testing.T) {
	c := testCatalog()
	q := Parse("Compare total sales for Product Alpha and Product Beta in Q2", testNER())
	p, err := Bind(q, c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("result:\n%s", res)
	}
	byProduct := map[string]float64{}
	for _, r := range res.Rows {
		byProduct[r[0].Str()] = r[1].Float()
	}
	if byProduct["Product Alpha"] != 40 || byProduct["Product Beta"] != 20 {
		t.Errorf("comparison = %v", byProduct)
	}
}

func TestBindThresholdOnChanges(t *testing.T) {
	c := testCatalog()
	q := Parse("Which quarters had a sales change of more than 15%?", testNER())
	p, err := Bind(q, c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Table != "metric_changes" {
		t.Fatalf("table = %s", p.Table)
	}
	res, err := Exec(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Str() != "Q2" {
		t.Errorf("result:\n%s", res)
	}
}

func TestBindFailsOnEmptyCatalog(t *testing.T) {
	q := Parse("Find the total sales in Q3", testNER())
	_, err := Bind(q, table.NewCatalog())
	if !errors.Is(err, ErrNoBinding) {
		t.Errorf("err = %v", err)
	}
}

func TestBindEntityFallback(t *testing.T) {
	c := testCatalog()
	// No metric word, but a product entity that matches product_sales.
	q := Parse("Product Alpha in Q2", testNER())
	p, err := Bind(q, c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("result:\n%s", res)
	}
}

func TestPlanString(t *testing.T) {
	c := testCatalog()
	q := Parse("Find the total sales of all products in Q3", testNER())
	p, _ := Bind(q, c)
	s := p.String()
	for _, want := range []string{"Scan(product_sales)", "Filter", "Aggregate"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan %q missing %q", s, want)
		}
	}
}

func TestExecNilPlan(t *testing.T) {
	if _, err := Exec(nil, testCatalog()); !errors.Is(err, ErrEmptyPlan) {
		t.Errorf("err = %v", err)
	}
}

func TestExecMissingTable(t *testing.T) {
	p := &Plan{Table: "ghost"}
	if _, err := Exec(p, testCatalog()); !errors.Is(err, table.ErrNoTable) {
		t.Errorf("err = %v", err)
	}
}

func TestLeadingNumber(t *testing.T) {
	if f, pct, ok := leadingNumber(" 15% in sales"); !ok || !pct || f != 15 {
		t.Errorf("got %v %v %v", f, pct, ok)
	}
	if f, pct, ok := leadingNumber(" 20 percent"); !ok || !pct || f != 20 {
		t.Errorf("got %v %v %v", f, pct, ok)
	}
	if _, _, ok := leadingNumber("no number anywhere in this string"); ok {
		t.Error("found number in text without one")
	}
}

func TestSingular(t *testing.T) {
	if singular("manufacturers") != "manufacturer" || singular("glass") != "glass" {
		t.Error("singular broken")
	}
}
