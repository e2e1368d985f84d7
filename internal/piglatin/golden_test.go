package piglatin

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// The expression golden pins the expression language: which texts parse,
// and the Canonical() each parses to. Canonical strings are the operator
// signatures the ReStore matcher compares, so a parser change that alters
// one silently breaks reuse of every stored output built with it.
// testdata/expr_golden.txt was generated by the precedence-ladder parser
// and must hold byte for byte; it is not regenerated.
const exprGoldenPath = "testdata/expr_golden.txt"

// exprGoldenCases is the number of seeded expression texts in the golden.
const exprGoldenCases = 1500

// goldenExprText draws one expression text. It mixes every operator,
// parentheses, not/and/or in every position and spelling, unary minus,
// $n, literals, calls, dotted projections and the constructs the language
// rejects (chained comparisons, a prefix not under a comparison, dangling
// operators).
func goldenExprText(rng *rand.Rand, depth int) string {
	atoms := []string{
		"a", "b", "c", "x", "grp", "$0", "$1", "$12", "0", "7", "42",
		"1.5", "0.25", "'s'", "'a b'", "'it\\'s'", "C.v", "C.v.w",
		"SUM(C.v)", "count(C)", "CONCAT(a, 'x')", "f()", "not", "and",
	}
	if depth <= 0 || rng.Intn(4) == 0 {
		return atoms[rng.Intn(len(atoms))]
	}
	sub := func() string { return goldenExprText(rng, depth-1) }
	infix := []string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=",
		"and", "or", "AND", "Or"}
	switch rng.Intn(12) {
	case 0, 1, 2, 3:
		return sub() + " " + infix[rng.Intn(len(infix))] + " " + sub()
	case 4:
		return []string{"not ", "NOT ", "not not "}[rng.Intn(3)] + sub()
	case 5:
		switch rng.Intn(4) {
		case 0:
			return "-" + sub()
		case 1:
			return "- " + sub()
		case 2:
			return "-(" + sub() + ")"
		default:
			return "- -" + sub()
		}
	case 6:
		return "(" + sub() + ")"
	case 7:
		// Comparisons do not chain; a prefix not is not admitted under one.
		cmp := []string{"<", "==", ">="}
		return sub() + " " + cmp[rng.Intn(3)] + " " + sub() + " " + cmp[rng.Intn(3)] + " " + sub()
	case 8:
		return sub() + " " + []string{"==", "+", "*"}[rng.Intn(3)] + " not " + sub()
	case 9:
		fn := []string{"SUM", "max", "ABS", "SIZE", "CONCAT"}[rng.Intn(5)]
		return fn + "(" + sub() + ", " + sub() + ")"
	case 10:
		return "(" + sub() + ")." + []string{"v", "w"}[rng.Intn(2)]
	default:
		// Dangling and doubled operators.
		return []string{sub() + " +", sub() + " " + sub(), "( " + sub(), sub() + " * * " + sub(), "-5", "-a * b", "a - -b"}[rng.Intn(7)]
	}
}

// filterScript embeds an expression text as the predicate of a filter.
func filterScript(text string) string {
	return fmt.Sprintf("A = load 'x' as (a, b, c);\nB = filter A by %s;\nstore B into 'o';", text)
}

// exprGoldenLine renders one golden line: the text, a tab, then the
// predicate's Canonical() or "error".
func exprGoldenLine(text string) string {
	s, err := Parse(filterScript(text))
	if err != nil {
		return text + "\terror"
	}
	return text + "\t" + s.Stmts[1].(*AssignStmt).Op.(*FilterNode).Pred.Canonical()
}

func goldenExprTexts() []string {
	rng := rand.New(rand.NewSource(1))
	texts := make([]string, exprGoldenCases)
	for i := range texts {
		texts[i] = goldenExprText(rng, 1+i%4)
	}
	return texts
}

func TestExprGolden(t *testing.T) {
	want, err := os.ReadFile(exprGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	texts := goldenExprTexts()
	if len(lines) != len(texts) {
		t.Fatalf("golden has %d lines, generator %d", len(lines), len(texts))
	}
	parsed := 0
	for i, text := range texts {
		got := exprGoldenLine(text)
		if got != lines[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, got, lines[i])
		}
		if !strings.HasSuffix(got, "\terror") {
			parsed++
		}
	}
	// Both halves of the language must be exercised.
	if parsed < len(texts)/4 || parsed > len(texts)*3/4 {
		t.Errorf("%d of %d golden texts parse; the mix is lopsided", parsed, len(texts))
	}
}
