package piglatin

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// source prints a parsed expression back to Pig Latin from the operator
// table's spellings and binding powers, with parentheses only where a
// child binds looser than its position admits.
func source(e *expr.Expr) string {
	var sb strings.Builder
	writeSource(&sb, e, 0)
	return sb.String()
}

// writeSource prints e where an operand binding at least as tightly as min
// is expected.
func writeSource(sb *strings.Builder, e *expr.Expr, min int) {
	op := e.Operator()
	if op != nil && op.Prec < min {
		sb.WriteByte('(')
		defer sb.WriteByte(')')
	}
	switch e.Op {
	case expr.OpBinary:
		left := op.Prec
		if !op.Chains {
			left++
		}
		writeSource(sb, e.Args[0], left)
		sb.WriteString(" " + op.Spelling + " ")
		writeSource(sb, e.Args[1], op.Prec+1)
	case expr.OpUnary:
		// The space keeps "- -a" from lexing as a comment.
		sb.WriteString(op.Spelling + " ")
		writeSource(sb, e.Args[0], op.Prec)
	case expr.OpCol:
		if e.Index >= 0 {
			fmt.Fprintf(sb, "$%d", e.Index)
		} else {
			sb.WriteString(e.Name)
		}
	case expr.OpLit:
		writeLiteral(sb, e.Lit)
	case expr.OpCall:
		sb.WriteString(e.Name + "(")
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeSource(sb, a, 0)
		}
		sb.WriteByte(')')
	case expr.OpBagProj:
		writeSource(sb, e.Args[0], math.MaxInt)
		sb.WriteString("." + e.Name)
	}
}

// writeLiteral prints the literals the parser produces: ints, floats (with
// a decimal point, which is what makes the lexer read a float) and quoted
// strings.
func writeLiteral(sb *strings.Builder, v types.Value) {
	switch v.Kind() {
	case types.KindInt:
		sb.WriteString(strconv.FormatInt(v.Int(), 10))
	case types.KindFloat:
		f := strconv.FormatFloat(v.Float(), 'f', -1, 64)
		if !strings.Contains(f, ".") {
			f += ".0"
		}
		sb.WriteString(f)
	default:
		sb.WriteString("'" + strings.NewReplacer(`\`, `\\`, `'`, `\'`).Replace(v.Str()) + "'")
	}
}

// scriptExprs collects every expression of a parsed script.
func scriptExprs(s *Script) []*expr.Expr {
	var out []*expr.Expr
	for _, st := range s.Stmts {
		switch st := st.(type) {
		case *SplitStmt:
			for _, b := range st.Branches {
				out = append(out, b.Pred)
			}
		case *AssignStmt:
			switch op := st.Op.(type) {
			case *FilterNode:
				out = append(out, op.Pred)
			case *ForeachNode:
				for _, n := range op.Nested {
					if n.Pred != nil {
						out = append(out, n.Pred)
					}
				}
				for _, g := range op.Gens {
					out = append(out, g.Expr)
				}
			case *GroupNode:
				out = append(out, op.Keys...)
			case *JoinNode:
				for _, ks := range op.Keys {
					out = append(out, ks...)
				}
			case *CoGroupNode:
				for _, ks := range op.Keys {
					out = append(out, ks...)
				}
			}
		}
	}
	return out
}

// asciiCalls reports whether every call name in e is ASCII. The lexer reads
// identifiers byte by byte and Call upper-cases names as Unicode, so a
// non-ASCII call name is not printable back to the same bytes.
func asciiCalls(e *expr.Expr) bool {
	if e.Op == expr.OpCall && strings.IndexFunc(e.Name, func(r rune) bool { return r >= 0x80 }) >= 0 {
		return false
	}
	for _, a := range e.Args {
		if !asciiCalls(a) {
			return false
		}
	}
	return true
}

// checkReprint prints every expression of a parsed script and parses the
// text again: the Canonical() must come back unchanged.
func checkReprint(t *testing.T, s *Script) {
	t.Helper()
	for _, e := range scriptExprs(s) {
		if !asciiCalls(e) {
			continue
		}
		text := source(e)
		back, err := Parse(filterScript(text))
		if err != nil {
			t.Fatalf("printed %s as %q, which does not parse: %v", e.Canonical(), text, err)
		}
		if got := back.Stmts[1].(*AssignStmt).Op.(*FilterNode).Pred.Canonical(); got != e.Canonical() {
			t.Fatalf("printed %s as %q, which parses to %s", e.Canonical(), text, got)
		}
	}
}

// TestSourceReparsesGolden prints every expression of the expression
// golden that parses and parses it again.
func TestSourceReparsesGolden(t *testing.T) {
	for _, text := range goldenExprTexts() {
		if s, err := Parse(filterScript(text)); err == nil {
			checkReprint(t, s)
		}
	}
}

// FuzzParse drives Parse with arbitrary scripts. Parse must never panic,
// and every expression of a script that parses must print back to Pig
// Latin and parse to an equal Canonical().
func FuzzParse(f *testing.F) {
	f.Add(q1Source)
	f.Add(q2Source)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		checkReprint(t, s)
	})
}
