// Command uniquery is an interactive CLI over the unified semantic
// query system. It ingests a directory of mixed sources — *.txt
// documents, *.csv tables, *.jsonl logs, *.xml configs — or a built-in
// demo corpus, then answers questions with plans, evidence and
// entropy.
//
// Usage:
//
//	uniquery -demo ecommerce -q "Find the total revenue of all products in Q4"
//	uniquery -demo healthcare              # interactive loop on stdin
//	uniquery -dir ./data -vocab vocab.txt -q "..."
//	uniquery -demo ecommerce -batch questions.txt -parallel 8
//	uniquery -demo ecommerce -explain -q "..."   # show the federated physical plan
//	uniquery -demo ecommerce -sql 'SELECT product, AVG(stars) AS result FROM ratings GROUP BY product'
//	uniquery -demo ecommerce -stats sales   # dump stats + fragment zone maps + registered rollups
//	uniquery -demo ecommerce -rollup "rev=sales:product:SUM(revenue),COUNT()" -rollup-stats rev
//
// The optional vocab file registers domain entities, one per line:
// "product: Product Alpha" / "drug: Drug A" / "side_effect: nausea".
// Batch mode reads one question per line (blank lines and #-comments
// skipped) and answers them concurrently via AskAll.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/workload"
)

// rollupSpecs collects the repeatable -rollup flag values.
type rollupSpecs []string

// String implements flag.Value.
func (r *rollupSpecs) String() string { return strings.Join(*r, "; ") }

// Set implements flag.Value.
func (r *rollupSpecs) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	dir := flag.String("dir", "", "directory of sources (*.txt, *.csv, *.jsonl, *.xml)")
	demo := flag.String("demo", "", "built-in demo corpus: ecommerce | healthcare | ops")
	vocab := flag.String("vocab", "", "vocabulary file: 'kind: phrase' per line")
	question := flag.String("q", "", "one-shot question (otherwise interactive)")
	sqlQuery := flag.String("sql", "", "one-shot SQL SELECT executed through the unified logical-plan engine")
	batch := flag.String("batch", "", "file of questions, one per line, answered concurrently")
	parallel := flag.Int("parallel", 0, "worker bound for build and batch answering (0 = all cores, 1 = sequential)")
	cacheSize := flag.Int("cache", 0, "LRU answer cache entries, invalidated on ingest (0 = off)")
	timeout := flag.Duration("timeout", 0, "federated query deadline; scans past it are cancelled (0 = none)")
	retries := flag.Int("retries", 0, "transient scan-failure retries per fragment, with capped backoff (0 = default, -1 = off)")
	showMetrics := flag.Bool("metrics", false, "print federated resilience counters (retries, failovers, breaker events) on exit")
	explain := flag.Bool("explain", false, "print the federated EXPLAIN (logical → physical plan, backend choice, est vs actual rows) with each answer")
	showTables := flag.Bool("tables", false, "list catalog tables after build")
	statsTable := flag.String("stats", "", "dump a table's per-column statistics and per-fragment zone maps (the planner's pruning inputs), plus the registered rollups")
	var rollups rollupSpecs
	flag.Var(&rollups, "rollup", `register a materialized rollup, "name=base:key1,key2:SUM(col),COUNT()" (repeatable); matching aggregate queries route onto it`)
	rollupStats := flag.String("rollup-stats", "", "describe one registered rollup (definition, row count, epoch)")
	saveDir := flag.String("save", "", "persist the built index+catalog to this directory")
	exportKB := flag.String("export-knowledge", "", "write inferred knowledge triples (TSV) to this file")
	flag.Parse()

	opts := unisem.DefaultOptions()
	opts.Workers = *parallel
	opts.AnswerCache = *cacheSize
	opts.QueryTimeout = *timeout
	opts.ScanRetries = *retries
	sys, err := buildSystem(*dir, *demo, *vocab, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uniquery: %v\n", err)
		os.Exit(1)
	}
	if *showMetrics {
		defer func() {
			for _, line := range sys.Metrics() {
				fmt.Println("metric " + line)
			}
		}()
	}

	st := sys.Stats()
	fmt.Printf("index: %d nodes, %d edges, %d chunks, %d entities, %d cues, %d extracted rows (built in %v)\n",
		st.Nodes, st.Edges, st.Chunks, st.Entities, st.Cues, st.ExtractedRows, st.BuildTime)
	for _, spec := range rollups {
		def, err := parseRollupSpec(spec)
		if err == nil {
			err = sys.AddRollup(def)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "uniquery: rollup: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("rollup registered: %s\n", def)
	}
	if *showTables {
		fmt.Printf("tables: %s\n", strings.Join(sys.Tables(), ", "))
	}
	if *statsTable != "" {
		desc, err := describeStats(sys, *statsTable)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uniquery: stats: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(desc)
	}
	if *rollupStats != "" {
		desc, err := sys.DescribeRollup(*rollupStats)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uniquery: rollup-stats: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(desc)
	}
	if *saveDir != "" {
		if err := sys.Save(*saveDir); err != nil {
			fmt.Fprintf(os.Stderr, "uniquery: save: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("saved index to %s\n", *saveDir)
	}
	if *exportKB != "" {
		f, err := os.Create(*exportKB)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uniquery: export: %v\n", err)
			os.Exit(1)
		}
		err = sys.ExportKnowledge(f, unisem.KnowledgeTSV)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "uniquery: export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("exported knowledge triples to %s\n", *exportKB)
	}

	if *batch != "" {
		if err := answerBatch(sys, *batch, *parallel, *cacheSize > 0); err != nil {
			fmt.Fprintf(os.Stderr, "uniquery: batch: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *sqlQuery != "" {
		answerSQL(sys, *sqlQuery, *explain)
		return
	}
	if *question != "" {
		answer(sys, *question, *explain)
		return
	}

	fmt.Println(`type a question, or a SQL SELECT ("exit" to quit):`)
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "exit" || line == "quit" {
			break
		}
		if word := strings.Fields(line)[0]; strings.EqualFold(word, "SELECT") {
			answerSQL(sys, line, *explain)
			continue
		}
		answer(sys, line, *explain)
	}
}

// answerSQL executes a SQL statement through the unified logical-plan
// engine and prints the result table (with the federated EXPLAIN when
// requested).
func answerSQL(sys *unisem.System, query string, explain bool) {
	res, err := sys.Query(query)
	if err != nil {
		fmt.Printf("query failed: %v\n", err)
		return
	}
	fmt.Print(res.Rendered)
	fmt.Printf("plan:   %s\n", res.Plan())
	if explain {
		if text := res.Explain(); text != "" {
			fmt.Println(text)
		}
	}
}

func answer(sys *unisem.System, q string, explain bool) {
	ans, err := sys.Ask(q)
	if err != nil {
		fmt.Printf("no answer: %v\n", err)
		return
	}
	fmt.Printf("answer: %s\n", ans.Text)
	if plan := ans.Plan(); plan != "" {
		fmt.Printf("plan:   %s\n", plan)
	}
	if explain {
		if text := ans.Explain(); text != "" {
			fmt.Println(text)
		}
	}
	fmt.Printf("entropy: %.3f", ans.Entropy)
	if ans.Flagged {
		fmt.Print("  [FLAGGED for review]")
	}
	fmt.Println()
	for i, e := range ans.Evidence {
		if i >= 3 {
			fmt.Printf("  ... and %d more evidence items\n", len(ans.Evidence)-3)
			break
		}
		text := e.Text
		if len(text) > 100 {
			text = text[:100] + "..."
		}
		fmt.Printf("  [%.2f] %s: %s\n", e.Score, e.ID, text)
	}
}

// answerBatch reads one question per line and answers them all through
// AskAll, reporting per-question results and batch throughput.
func answerBatch(sys *unisem.System, path string, parallel int, cacheOn bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var questions []string
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		questions = append(questions, line)
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	start := time.Now()
	answers, err := sys.AskAll(questions, parallel)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	answered := 0
	for i, ans := range answers {
		if ans.Err != nil {
			fmt.Printf("[%d] %s\n    no answer: %v\n", i+1, questions[i], ans.Err)
			continue
		}
		answered++
		flag := ""
		if ans.Flagged {
			flag = "  [FLAGGED]"
		}
		fmt.Printf("[%d] %s\n    answer: %s  (entropy %.3f)%s\n", i+1, questions[i], ans.Text, ans.Entropy, flag)
	}
	qps := float64(len(questions)) / elapsed.Seconds()
	fmt.Printf("batch: %d/%d answered in %v (%.1f q/s)\n", answered, len(questions), elapsed, qps)
	if cacheOn {
		hits, misses, size := sys.CacheStats()
		fmt.Printf("cache: %d hits, %d misses, %d entries\n", hits, misses, size)
	}
	return nil
}

func buildSystem(dir, demo, vocabPath string, opts unisem.Options) (*unisem.System, error) {
	sys := unisem.NewWithOptions(opts)

	switch demo {
	case "ecommerce":
		return demoSystem(sys, workload.ECommerce(workload.DefaultECommerceOptions()))
	case "healthcare":
		return demoSystem(sys, workload.Healthcare(workload.DefaultHealthcareOptions()))
	case "ops":
		return demoSystem(sys, workload.Ops(workload.DefaultOpsOptions()))
	case "":
	default:
		return nil, fmt.Errorf("unknown demo %q", demo)
	}
	if dir == "" {
		return nil, fmt.Errorf("need -dir or -demo")
	}

	if vocabPath != "" {
		if err := loadVocab(sys, vocabPath); err != nil {
			return nil, err
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, entry := range entries {
		if entry.IsDir() {
			continue
		}
		path := filepath.Join(dir, entry.Name())
		base := strings.TrimSuffix(entry.Name(), filepath.Ext(entry.Name()))
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(filepath.Ext(entry.Name())) {
		case ".txt":
			data, rerr := os.ReadFile(path)
			if rerr == nil {
				err = sys.AddDocument("docs", base, string(data))
			} else {
				err = rerr
			}
		case ".csv":
			err = sys.AddCSV(base, f)
		case ".jsonl", ".json":
			err = sys.AddJSONLines(base, f)
		case ".xml":
			err = sys.AddXML(base, f)
		}
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
	}
	if err := sys.Build(); err != nil {
		return nil, err
	}
	return sys, nil
}

// demoSystem loads a generated corpus through the public API: text
// documents via AddDocument, relational tables via CSV round-trip,
// JSON records reconstructed from their flattened fields.
func demoSystem(sys *unisem.System, c *workload.Corpus) (*unisem.System, error) {
	for kind, phrases := range c.Vocab() {
		sys.Vocabulary(unisem.VocabKind(kind), phrases...)
	}
	for _, rec := range c.Sources.Records() {
		switch rec.Kind {
		case store.KindText:
			if err := sys.AddDocument(rec.Source, rec.ID, rec.Text); err != nil {
				return nil, err
			}
		case store.KindJSON:
			obj := map[string]interface{}{}
			for k, v := range rec.Fields {
				obj[k] = v
			}
			data, err := json.Marshal(obj)
			if err != nil {
				return nil, err
			}
			if err := sys.AddJSONLines(rec.Source, bytes.NewReader(data)); err != nil {
				return nil, err
			}
		}
	}
	cat := c.NativeCatalog()
	for _, name := range cat.Names() {
		tbl, err := cat.Get(name)
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			return nil, err
		}
		if err := sys.AddCSV(name, &buf); err != nil {
			return nil, err
		}
	}
	if err := sys.Build(); err != nil {
		return nil, err
	}
	return sys, nil
}

// parseRollupSpec parses the -rollup flag's compact definition form
// "name=base:key1,key2:SUM(col),COUNT()": a rollup name, its base
// table, the group-key columns, and the aggregate list (COUNT may omit
// its column).
func parseRollupSpec(spec string) (table.RollupDef, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return table.RollupDef{}, fmt.Errorf("rollup spec %q: want name=base:keys:aggs", spec)
	}
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return table.RollupDef{}, fmt.Errorf("rollup spec %q: want name=base:keys:aggs", spec)
	}
	def := table.RollupDef{Name: strings.TrimSpace(name), Base: strings.TrimSpace(parts[0])}
	for _, k := range strings.Split(parts[1], ",") {
		if k = strings.TrimSpace(k); k != "" {
			def.GroupBy = append(def.GroupBy, k)
		}
	}
	for _, raw := range strings.Split(parts[2], ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		fnName, colPart, ok := strings.Cut(raw, "(")
		if !ok || !strings.HasSuffix(colPart, ")") {
			return table.RollupDef{}, fmt.Errorf("rollup spec %q: aggregate %q: want FUNC(col)", spec, raw)
		}
		fn, err := table.ParseAggFunc(fnName)
		if err != nil {
			return table.RollupDef{}, fmt.Errorf("rollup spec %q: %w", spec, err)
		}
		col := strings.TrimSpace(strings.TrimSuffix(colPart, ")"))
		def.Aggs = append(def.Aggs, table.Agg{Func: fn, Col: col})
	}
	return def, nil
}

// describeStats renders the -stats report: the named table's planner
// metadata (when the name is a rollup, its definition line leads), then
// every registered rollup with its definition, materialized row count
// and epoch.
func describeStats(sys *unisem.System, name string) (string, error) {
	var b strings.Builder
	if line, err := sys.DescribeRollup(name); err == nil {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	desc, err := sys.DescribeTable(name)
	if err != nil {
		return "", err
	}
	b.WriteString(desc)
	b.WriteString("\nrollups:")
	defs := sys.Rollups()
	if len(defs) == 0 {
		b.WriteString(" none")
	}
	for _, d := range defs {
		line, err := sys.DescribeRollup(d.Name)
		if err != nil {
			return "", err
		}
		b.WriteString("\n  " + line)
	}
	return b.String(), nil
}

func loadVocab(sys *unisem.System, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, ":", 2)
		if len(parts) != 2 {
			continue
		}
		sys.Vocabulary(unisem.VocabKind(strings.TrimSpace(parts[0])), strings.TrimSpace(parts[1]))
	}
	return scanner.Err()
}
