package piglatin

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/types"
)

// Parse parses a script into an AST.
func Parse(src string) (*Script, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	script := &Script{}
	for p.tok.kind != tokEOF {
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		script.Stmts = append(script.Stmts, st)
	}
	if len(script.Stmts) == 0 {
		return nil, &Error{Line: 1, Col: 1, Msg: "empty script"}
	}
	return script, nil
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) *Error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

// keyword matching is case-insensitive.
func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errf("expected %q, found %q", kw, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.errf("expected %q, found %q", s, p.tok.text)
	}
	return p.advance()
}

func (p *parser) isPunct(s string) bool {
	return p.tok.kind == tokPunct && p.tok.text == s
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.errf("expected identifier, found %s %q", p.tok.kind, p.tok.text)
	}
	name := p.tok.text
	return name, p.advance()
}

// identAfter consumes the current token (a keyword, or the ":" or "." of a
// field) and reads the identifier after it.
func (p *parser) identAfter() (string, error) {
	if err := p.advance(); err != nil {
		return "", err
	}
	return p.expectIdent()
}

func (p *parser) expectString() (string, error) {
	if p.tok.kind != tokString {
		return "", p.errf("expected quoted string, found %q", p.tok.text)
	}
	s := p.tok.text
	return s, p.advance()
}

// parseList parses one or more items separated by commas.
func (p *parser) parseList(item func() error) error {
	for {
		if err := item(); err != nil {
			return err
		}
		if !p.isPunct(",") {
			return nil
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
}

// parseExprs parses one or more comma-separated expressions.
func (p *parser) parseExprs() ([]*expr.Expr, error) {
	var es []*expr.Expr
	err := p.parseList(func() error {
		e, err := p.parseExpr()
		es = append(es, e)
		return err
	})
	return es, err
}

// reserved words cannot be used as relation aliases on the LHS.
var reserved = map[string]bool{
	"load": true, "store": true, "foreach": true, "generate": true,
	"filter": true, "join": true, "group": true, "cogroup": true,
	"distinct": true, "union": true, "order": true, "limit": true,
	"by": true, "as": true, "into": true, "all": true, "and": true,
	"or": true, "not": true, "asc": true, "desc": true, "if": true,
	"split": true, "using": true,
}

func (p *parser) parseStatement() (Stmt, error) {
	line := p.tok.line
	if p.isKeyword("split") {
		return p.parseSplit(line)
	}
	if p.isKeyword("store") {
		alias, err := p.identAfter()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("into"); err != nil {
			return nil, err
		}
		path, err := p.expectString()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &StoreStmt{Alias: alias, Path: path, Line: line}, nil
	}

	alias, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if reserved[strings.ToLower(alias)] {
		return nil, p.errf("reserved word %q cannot be an alias", alias)
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	op, err := p.parseOp()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &AssignStmt{Alias: alias, Op: op, Line: line}, nil
}

func (p *parser) parseSplit(line int) (Stmt, error) {
	src, err := p.identAfter()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	st := &SplitStmt{Src: src, Line: line}
	err = p.parseList(func() error {
		alias, err := p.expectIdent()
		if err != nil {
			return err
		}
		if reserved[strings.ToLower(alias)] {
			return p.errf("reserved word %q cannot be an alias", alias)
		}
		if err := p.expectKeyword("if"); err != nil {
			return err
		}
		pred, err := p.parseExpr()
		st.Branches = append(st.Branches, SplitBranch{Alias: alias, Pred: pred})
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(st.Branches) < 2 {
		return nil, p.errf("split needs at least two branches")
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseOp() (OpNode, error) {
	switch {
	case p.isKeyword("load"):
		return p.parseLoad()
	case p.isKeyword("foreach"):
		return p.parseForeach()
	case p.isKeyword("filter"):
		return p.parseFilter()
	case p.isKeyword("join"):
		return p.parseJoinLike(false)
	case p.isKeyword("cogroup"):
		return p.parseJoinLike(true)
	case p.isKeyword("group"):
		return p.parseGroup()
	case p.isKeyword("distinct"):
		src, err := p.identAfter()
		if err != nil {
			return nil, err
		}
		return &DistinctNode{Src: src}, nil
	case p.isKeyword("union"):
		return p.parseUnion()
	case p.isKeyword("order"):
		return p.parseOrder()
	case p.isKeyword("limit"):
		return p.parseLimit()
	default:
		return nil, p.errf("expected an operation keyword, found %q", p.tok.text)
	}
}

func (p *parser) parseLoad() (OpNode, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	path, err := p.expectString()
	if err != nil {
		return nil, err
	}
	node := &LoadNode{Path: path}
	// Optional "using loader" clause, accepted and ignored (all our data is
	// in the native tuple format).
	if p.isKeyword("using") {
		if _, err := p.identAfter(); err != nil {
			return nil, err
		}
		if p.isPunct("(") {
			if err := p.skipParens(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("as") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		schema, err := p.parseSchema()
		if err != nil {
			return nil, err
		}
		node.Schema = schema
	}
	return node, nil
}

func (p *parser) skipParens() error {
	depth := 0
	for {
		switch {
		case p.isPunct("("):
			depth++
		case p.isPunct(")"):
			depth--
		case p.tok.kind == tokEOF:
			return p.errf("unbalanced parentheses")
		}
		if err := p.advance(); err != nil {
			return err
		}
		if depth == 0 {
			return nil
		}
	}
}

func (p *parser) parseSchema() (types.Schema, error) {
	if err := p.expectPunct("("); err != nil {
		return types.Schema{}, err
	}
	var fields []types.Field
	err := p.parseList(func() error {
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		f := types.Field{Name: name}
		if p.isPunct(":") {
			tname, err := p.identAfter()
			if err != nil {
				return err
			}
			kind, ok := kindFromTypeName(tname)
			if !ok {
				return p.errf("unknown type %q", tname)
			}
			f.Kind = kind
		}
		fields = append(fields, f)
		return nil
	})
	if err != nil {
		return types.Schema{}, err
	}
	if err := p.expectPunct(")"); err != nil {
		return types.Schema{}, err
	}
	return types.Schema{Fields: fields}, nil
}

func kindFromTypeName(name string) (types.Kind, bool) {
	switch strings.ToLower(name) {
	case "int", "long":
		return types.KindInt, true
	case "float", "double":
		return types.KindFloat, true
	case "chararray", "string":
		return types.KindString, true
	case "boolean", "bool":
		return types.KindBool, true
	case "bytearray":
		return types.KindNull, true
	default:
		return types.KindNull, false
	}
}

func (p *parser) parseForeach() (OpNode, error) {
	src, err := p.identAfter()
	if err != nil {
		return nil, err
	}
	node := &ForeachNode{Src: src}
	if p.isPunct("{") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for !p.isKeyword("generate") {
			n, err := p.parseNested()
			if err != nil {
				return nil, err
			}
			node.Nested = append(node.Nested, n)
		}
		gens, err := p.parseGenerate()
		if err != nil {
			return nil, err
		}
		node.Gens = gens
		if p.isPunct(";") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return node, nil
	}
	gens, err := p.parseGenerate()
	if err != nil {
		return nil, err
	}
	node.Gens = gens
	return node, nil
}

func (p *parser) parseNested() (NestedNode, error) {
	alias, err := p.expectIdent()
	if err != nil {
		return NestedNode{}, err
	}
	if err := p.expectPunct("="); err != nil {
		return NestedNode{}, err
	}
	n := NestedNode{Alias: alias, Kind: "ident"}
	switch {
	case p.isKeyword("distinct"):
		n.Kind = "distinct"
		if err := p.advance(); err != nil {
			return NestedNode{}, err
		}
		if err := p.parseNestedSrc(&n); err != nil {
			return NestedNode{}, err
		}
	case p.isKeyword("filter"):
		n.Kind = "filter"
		if err := p.advance(); err != nil {
			return NestedNode{}, err
		}
		if err := p.parseNestedSrc(&n); err != nil {
			return NestedNode{}, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return NestedNode{}, err
		}
		pred, err := p.parseExpr()
		if err != nil {
			return NestedNode{}, err
		}
		n.Pred = pred
	default:
		if err := p.parseNestedSrc(&n); err != nil {
			return NestedNode{}, err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return NestedNode{}, err
	}
	return n, nil
}

func (p *parser) parseNestedSrc(n *NestedNode) error {
	src, err := p.expectIdent()
	if err != nil {
		return err
	}
	n.SrcAlias = src
	if p.isPunct(".") {
		field, err := p.identAfter()
		if err != nil {
			return err
		}
		n.SrcField = field
	}
	return nil
}

func (p *parser) parseGenerate() ([]GenExpr, error) {
	if err := p.expectKeyword("generate"); err != nil {
		return nil, err
	}
	var gens []GenExpr
	err := p.parseList(func() error {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		g := GenExpr{Expr: e}
		if p.isKeyword("as") {
			if g.As, err = p.identAfter(); err != nil {
				return err
			}
		}
		gens = append(gens, g)
		return nil
	})
	return gens, err
}

func (p *parser) parseFilter() (OpNode, error) {
	src, err := p.identAfter()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("by"); err != nil {
		return nil, err
	}
	pred, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &FilterNode{Src: src, Pred: pred}, nil
}

func (p *parser) parseJoinLike(cogroup bool) (OpNode, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	var srcs []string
	var keys [][]*expr.Expr
	err := p.parseList(func() error {
		src, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectKeyword("by"); err != nil {
			return err
		}
		ks, err := p.parseKeySpec()
		srcs = append(srcs, src)
		keys = append(keys, ks)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(srcs) < 2 {
		return nil, p.errf("join/cogroup needs at least two inputs")
	}
	if cogroup {
		return &CoGroupNode{Srcs: srcs, Keys: keys}, nil
	}
	if len(srcs) != 2 {
		return nil, p.errf("join supports exactly two inputs (got %d)", len(srcs))
	}
	return &JoinNode{Srcs: srcs, Keys: keys}, nil
}

// parseKeySpec parses one key expression or a parenthesized list of them.
func (p *parser) parseKeySpec() ([]*expr.Expr, error) {
	if !p.isPunct("(") {
		e, err := p.parseExpr()
		return []*expr.Expr{e}, err
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	ks, err := p.parseExprs()
	if err != nil {
		return nil, err
	}
	return ks, p.expectPunct(")")
}

func (p *parser) parseGroup() (OpNode, error) {
	src, err := p.identAfter()
	if err != nil {
		return nil, err
	}
	if p.isKeyword("all") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &GroupNode{Src: src, All: true}, nil
	}
	if err := p.expectKeyword("by"); err != nil {
		return nil, err
	}
	keys, err := p.parseKeySpec()
	if err != nil {
		return nil, err
	}
	return &GroupNode{Src: src, Keys: keys}, nil
}

func (p *parser) parseUnion() (OpNode, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	var srcs []string
	err := p.parseList(func() error {
		src, err := p.expectIdent()
		srcs = append(srcs, src)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(srcs) < 2 {
		return nil, p.errf("union needs at least two inputs")
	}
	return &UnionNode{Srcs: srcs}, nil
}

func (p *parser) parseOrder() (OpNode, error) {
	src, err := p.identAfter()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("by"); err != nil {
		return nil, err
	}
	var cols []OrderCol
	err = p.parseList(func() error {
		var col OrderCol
		switch p.tok.kind {
		case tokIdent:
			col.Name = p.tok.text
		case tokPosCol:
			idx, err := strconv.Atoi(p.tok.text)
			if err != nil {
				return p.errf("bad positional column $%s", p.tok.text)
			}
			col.Idx = idx
		default:
			return p.errf("expected sort column, found %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return err
		}
		if p.isKeyword("desc") || p.isKeyword("asc") {
			col.Desc = p.isKeyword("desc")
			if err := p.advance(); err != nil {
				return err
			}
		}
		cols = append(cols, col)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &OrderNode{Src: src, Cols: cols}, nil
}

func (p *parser) parseLimit() (OpNode, error) {
	src, err := p.identAfter()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokInt {
		return nil, p.errf("expected limit count, found %q", p.tok.text)
	}
	n, err := strconv.ParseInt(p.tok.text, 10, 64)
	if err != nil || n < 0 {
		return nil, p.errf("bad limit count %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return &LimitNode{Src: src, N: n}, nil
}

// --- expressions ---

// parseExpr parses one expression by precedence climbing over the operator
// table of internal/expr.
func (p *parser) parseExpr() (*expr.Expr, error) {
	return p.parseBinding(0)
}

// parseBinding parses an expression whose operators bind at least as
// tightly as min. A prefix operator applies only where its binding power
// admits it; elsewhere its spelling is read as an identifier (so
// "a == not b" stays an error). An infix operator takes the expression so
// far as its left operand when that operand binds at least as tightly
// (strictly, for operators that do not chain).
func (p *parser) parseBinding(min int) (*expr.Expr, error) {
	var left *expr.Expr
	level := math.MaxInt // the binding power of left's top operator
	if op := p.operator(expr.Prefix); op != nil && op.Prec >= min {
		operand, err := p.parseAfter(op.Prec)
		if err != nil {
			return nil, err
		}
		left, level = expr.Unary(op.Sym, operand), op.Prec
	} else {
		var err error
		if left, err = p.parsePostfix(); err != nil {
			return nil, err
		}
	}
	for {
		op := p.operator(expr.Infix)
		if op == nil || op.Prec < min || level < op.Prec || (level == op.Prec && !op.Chains) {
			return left, nil
		}
		right, err := p.parseAfter(op.Prec + 1)
		if err != nil {
			return nil, err
		}
		left, level = expr.Binary(op.Sym, left, right), op.Prec
	}
}

// parseAfter consumes the current token (an operator, or an opening
// parenthesis) and parses the expression after it.
func (p *parser) parseAfter(min int) (*expr.Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseBinding(min)
}

// operator looks the current token up with one of the operator table's
// spelling lookups (expr.Prefix or expr.Infix).
func (p *parser) operator(lookup func(string) *expr.Operator) *expr.Operator {
	if p.tok.kind != tokIdent && p.tok.kind != tokPunct {
		return nil
	}
	return lookup(p.tok.text)
}

// parsePostfix handles "alias.field" bag projection.
func (p *parser) parsePostfix() (*expr.Expr, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.isPunct(".") {
		field, err := p.identAfter()
		if err != nil {
			return nil, err
		}
		base = expr.BagProj(base, field)
	}
	return base, nil
}

func (p *parser) parsePrimary() (*expr.Expr, error) {
	var e *expr.Expr
	switch p.tok.kind {
	case tokInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", p.tok.text)
		}
		e = expr.Lit(types.NewInt(n))
	case tokFloat:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", p.tok.text)
		}
		e = expr.Lit(types.NewFloat(f))
	case tokString:
		e = expr.Lit(types.NewString(p.tok.text))
	case tokPosCol:
		idx, err := strconv.Atoi(p.tok.text)
		if err != nil {
			return nil, p.errf("bad positional column $%s", p.tok.text)
		}
		e = expr.ColIdx(idx)
	case tokIdent:
		return p.parseName()
	default:
		if !p.isPunct("(") {
			return nil, p.errf("expected an expression, found %q", p.tok.text)
		}
		inner, err := p.parseAfter(0)
		if err != nil {
			return nil, err
		}
		return inner, p.expectPunct(")")
	}
	return e, p.advance()
}

// parseName parses a column reference or, before "(", a function call.
func (p *parser) parseName() (*expr.Expr, error) {
	name := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if !p.isPunct("(") {
		return expr.Col(name), nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var args []*expr.Expr
	if !p.isPunct(")") {
		var err error
		if args, err = p.parseExprs(); err != nil {
			return nil, err
		}
	}
	return expr.Call(name, args...), p.expectPunct(")")
}
