package sql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/table"
)

// Sentinel errors.
var (
	ErrSyntax = errors.New("sql: syntax error")
)

// SelectItem is one projection: a bare column or an aggregate call.
type SelectItem struct {
	Col   string
	Agg   table.AggFunc
	IsAgg bool
	As    string
	Star  bool // COUNT(*) or SELECT *
}

// JoinClause is an INNER equi-join.
type JoinClause struct {
	Table    string
	LeftCol  string // column of the FROM table (qualified form accepted)
	RightCol string // column of the joined table
}

// Where is one conjunct of the WHERE clause.
type Where = table.Pred

// OrderKey is one ORDER BY key.
type OrderKey = table.SortKey

// Stmt is a parsed SELECT statement.
type Stmt struct {
	Items    []SelectItem
	Distinct bool
	From     string
	// RowStart/RowEnd restrict the FROM table to the physical row range
	// [RowStart, RowEnd) — the ROWS a TO b clause the federated SQL
	// backend uses to express fragment-ranged scans as text. RowEnd 0
	// means the whole table.
	RowStart, RowEnd int
	Join             *JoinClause
	Wheres           []Where
	GroupBy          []string
	OrderBy          []OrderKey
	Limit            int // 0 = none
}

type parser struct {
	toks []token
	pos  int
	src  string
	err  error // the first syntax error; once set, nothing more is consumed
}

// Parse parses one SELECT statement.
func Parse(input string) (*Stmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	stmt := p.selectStmt()
	p.symbol(";") // optional trailing semicolon
	if p.cur().kind != tokEOF {
		p.fail("trailing input %q", p.cur().text)
	}
	if p.err != nil {
		return nil, p.err
	}
	return stmt, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

// fail records a syntax error at the current token unless one is
// already recorded.
func (p *parser) fail(format string, args ...interface{}) {
	if p.err == nil {
		p.err = fmt.Errorf("%w: %s (byte %d of %q)", ErrSyntax, fmt.Sprintf(format, args...), p.cur().pos, p.src)
	}
}

// accept consumes the next token when it is the keyword or symbol text.
func (p *parser) accept(kind tokKind, text string) bool {
	if p.err == nil && p.cur().kind == kind && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) keyword(kw string) bool { return p.accept(tokKeyword, kw) }
func (p *parser) symbol(s string) bool   { return p.accept(tokSymbol, s) }

func (p *parser) expectKeyword(kw string) {
	if !p.keyword(kw) {
		p.fail("expected %s, got %q", kw, p.cur().text)
	}
}

func (p *parser) expectSymbol(s string) {
	if !p.symbol(s) {
		p.fail("expected %q, got %q", s, p.cur().text)
	}
}

// list parses one or more items separated by the token (kind, sep).
func list[T any](p *parser, kind tokKind, sep string, item func() T) []T {
	out := []T{item()}
	for p.accept(kind, sep) {
		out = append(out, item())
	}
	return out
}

func (p *parser) selectStmt() *Stmt {
	p.expectKeyword("SELECT")
	stmt := &Stmt{Distinct: p.keyword("DISTINCT")}
	stmt.Items = list(p, tokSymbol, ",", p.selectItem)
	p.expectKeyword("FROM")
	stmt.From = p.ident()
	if p.keyword("ROWS") {
		stmt.RowStart = p.count("ROWS bound")
		p.expectKeyword("TO")
		stmt.RowEnd = p.count("ROWS bound")
		if stmt.RowEnd <= stmt.RowStart {
			p.fail("empty ROWS range %d TO %d", stmt.RowStart, stmt.RowEnd)
		}
	}
	if p.keyword("INNER") || p.cur().kind == tokKeyword && p.cur().text == "JOIN" {
		p.expectKeyword("JOIN")
		stmt.Join = &JoinClause{Table: p.ident()}
		p.expectKeyword("ON")
		stmt.Join.LeftCol = p.columnRef()
		p.expectSymbol("=")
		stmt.Join.RightCol = p.columnRef()
	}
	if p.keyword("WHERE") {
		stmt.Wheres = list(p, tokKeyword, "AND", p.whereClause)
	}
	if p.keyword("GROUP") {
		p.expectKeyword("BY")
		stmt.GroupBy = list(p, tokSymbol, ",", p.columnRef)
	}
	if p.keyword("ORDER") {
		p.expectKeyword("BY")
		stmt.OrderBy = list(p, tokSymbol, ",", p.orderKey)
	}
	if p.keyword("LIMIT") {
		// Limit 0 means "no limit", so a zero-row limit has no form.
		if stmt.Limit = p.count("LIMIT count"); stmt.Limit == 0 {
			p.fail("LIMIT 0")
		}
	}
	return stmt
}

func (p *parser) orderKey() OrderKey {
	key := OrderKey{Col: p.columnRef(), Desc: p.keyword("DESC")}
	if !key.Desc {
		p.keyword("ASC")
	}
	return key
}

// count parses a non-negative integer: a ROWS bound or the LIMIT count.
func (p *parser) count(what string) int {
	if p.err != nil || p.cur().kind != tokNumber {
		p.fail("expected %s, got %q", what, p.cur().text)
		return 0
	}
	n, err := strconv.Atoi(p.next().text)
	if err != nil || n < 0 {
		p.fail("bad %s", what)
	}
	return n
}

var aggKeywords = map[string]table.AggFunc{
	"COUNT": table.AggCount,
	"SUM":   table.AggSum,
	"AVG":   table.AggAvg,
	"MIN":   table.AggMin,
	"MAX":   table.AggMax,
}

func (p *parser) selectItem() SelectItem {
	if p.symbol("*") {
		return SelectItem{Star: true}
	}
	var item SelectItem
	if fn, ok := aggKeywords[p.cur().text]; ok && p.keyword(p.cur().text) {
		item = SelectItem{Agg: fn, IsAgg: true}
		p.expectSymbol("(")
		if item.Star = p.symbol("*"); !item.Star {
			item.Col = p.columnRef()
		}
		p.expectSymbol(")")
	} else {
		item.Col = p.columnRef()
	}
	if p.keyword("AS") {
		item.As = p.ident()
	}
	return item
}

// cmpOps maps each comparison symbol to its operator.
var cmpOps = map[string]table.CmpOp{
	"=": table.OpEq, "!=": table.OpNe, "<>": table.OpNe, "<": table.OpLt,
	"<=": table.OpLe, ">": table.OpGt, ">=": table.OpGe,
}

func (p *parser) whereClause() Where {
	w := Where{Col: p.columnRef()}
	switch t := p.cur(); {
	case p.keyword("CONTAINS"):
		w.Op = table.OpContains
	case t.kind != tokSymbol:
		p.fail("expected comparison operator, got %q", t.text)
	default:
		var ok bool
		if w.Op, ok = cmpOps[t.text]; !ok {
			p.fail("bad operator %q", t.text)
		}
		p.symbol(t.text)
	}
	w.Val = p.literal()
	return w
}

func (p *parser) literal() table.Value {
	t := p.cur()
	switch {
	case p.err != nil:
	case t.kind == tokNumber && strings.Contains(t.text, "."):
		p.pos++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			p.fail("bad number %q", t.text)
		}
		return table.F(f)
	case t.kind == tokNumber:
		p.pos++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			p.fail("bad number %q", t.text)
		}
		return table.I(n)
	case t.kind == tokString:
		p.pos++
		return table.S(t.text)
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.pos++
		return table.B(t.text == "TRUE")
	case t.kind == tokKeyword && t.text == "NULL":
		p.pos++
		return table.Null(table.TypeString)
	default:
		p.fail("expected literal, got %q", t.text)
	}
	return table.Value{}
}

// columnRef parses "col" or "table.col" (the qualifier is kept — the
// executor resolves it against join-renamed schemas).
func (p *parser) columnRef() string {
	name := p.ident()
	if p.symbol(".") {
		return name + "." + p.ident()
	}
	return name
}

func (p *parser) ident() string {
	if p.err == nil && p.cur().kind == tokIdent {
		return p.next().text
	}
	p.fail("expected identifier, got %q", p.cur().text)
	return ""
}
