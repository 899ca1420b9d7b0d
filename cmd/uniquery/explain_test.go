package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "re-record the -explain output goldens")

// stdoutOf returns what print writes to standard output.
func stdoutOf(t *testing.T, print func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	print()
	os.Stdout = saved
	w.Close()
	return <-out
}

// The -explain output of an NL answer and of a SQL query, byte for byte:
// the plan line, the EXPLAIN block, the entropy line and the evidence.
// The goldens were recorded when answers carried their plan and EXPLAIN
// as eagerly rendered strings; Plan() and Explain() render the executed
// run on demand and must print the same bytes.
func TestExplainOutputGolden(t *testing.T) {
	sys, err := buildSystem("", "ecommerce", "", unisem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		print func()
	}{
		{"ask_join", func() {
			answer(sys, "What is the average rating of Product Alpha among products with a sales increase of more than 15%?", true)
		}},
		{"ask_group", func() { answer(sys, "What is the total revenue by quarter?", true) }},
		{"sql_group", func() {
			answerSQL(sys, "SELECT product, AVG(stars) AS result FROM ratings GROUP BY product", true)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := stdoutOf(t, c.print)
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("-explain output changed:\n%s\nwant\n%s", got, want)
			}
		})
	}
}
