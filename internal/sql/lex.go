// Package sql implements a small SQL dialect over the table engine:
//
//	SELECT [DISTINCT] cols | agg(col) [AS name] ...
//	FROM table [ROWS a TO b]
//	[JOIN table2 ON t1.col = t2.col]
//	[WHERE pred [AND pred]...]
//	[GROUP BY col, ...]
//	[ORDER BY col [DESC], ...]
//	[LIMIT n] (n ≥ 1)
//
// The dialect is the target language of Semantic Operator Synthesis
// and the text the federated SQL backend ships its fragments in. This
// package owns it both ways: Parse reads it, Format writes it, and
// nothing else in the module writes dialect text. Semop plans build a
// Stmt and Format it (Plan.ToSQL in internal/semop), so the Text-to-SQL
// baseline is a genuine text→SQL→execution pipeline rather than an
// in-memory shortcut.
package sql

import (
	"fmt"
	"strings"
)

// tokKind classifies a lexer token.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // punctuation and operators
	tokKeyword // reserved words, upper-cased
)

type token struct {
	kind tokKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AND": true, "AS": true, "DESC": true,
	"ASC": true, "JOIN": true, "ON": true, "DISTINCT": true, "COUNT": true,
	"SUM": true, "AVG": true, "MIN": true, "MAX": true, "CONTAINS": true,
	"NOT": true, "NULL": true, "TRUE": true, "FALSE": true, "INNER": true,
	"ROWS": true, "TO": true,
}

// lex tokenizes a SQL string. Errors carry byte positions.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9' || (c == '-' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			i++
			for i < n && (input[i] >= '0' && input[i] <= '9' || input[i] == '.') {
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: input[start:i], pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at byte %d", start)
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			text := input[start:i]
			if isKeyword(text) {
				toks = append(toks, token{kind: tokKeyword, text: strings.ToUpper(text), pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: text, pos: start})
			}
		case c == '<' || c == '>' || c == '!':
			start := i
			i++
			if i < n && input[i] == '=' {
				i++
			}
			toks = append(toks, token{kind: tokSymbol, text: input[start:i], pos: start})
		case c == '=' || c == '(' || c == ')' || c == ',' || c == '*' || c == '.' || c == ';':
			toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at byte %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// isKeyword reports whether ident is a reserved word, in any case,
// without allocating: Format's checks run on every plan miss.
func isKeyword(ident string) bool {
	var buf [8]byte // DISTINCT and CONTAINS, the longest keywords
	if len(ident) > len(buf) {
		return false
	}
	for i := 0; i < len(ident); i++ {
		c := ident[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(ident)])]
}
