package sqlparser

import (
	"strconv"
	"strings"
)

// Parse parses one SQL statement.
func Parse(src string) (Statement, error) {
	l, err := Lex(src)
	if err != nil {
		return nil, err
	}
	defer l.Release()
	return l.Parse()
}

// Parse parses the lexed statement and marks which of its literals are
// values (see Shape).
func (l *Lexed) Parse() (Statement, error) {
	p := parser{toks: l.tokens}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input starting at %q", p.peek().text)
	}
	return st, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

// next consumes and returns the current token. EOF is never consumed —
// the token slice's sentinel must stay indexable for later peeks (a
// fuzz-found crash: an error path peeking after next() swallowed EOF).
func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return errAt(p.peek().pos, format, args...)
}

// kw matches a case-insensitive keyword without consuming on failure.
func (p *parser) kw(word string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKw(word string) error {
	if !p.kw(word) {
		return p.errf("expected %s, got %q", strings.ToUpper(word), p.peek().text)
	}
	return nil
}

func (p *parser) punct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.punct(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.i++
	return t.text, nil
}

// listLen counts the comma-separated items from the current token to
// the end of the list: a ")" that closes it, FROM, or the statement's
// end. It only sizes a slice; the items are parsed and checked as read.
func (p *parser) listLen() int {
	n, depth := 1, 0
	for _, t := range p.toks[p.i:] {
		switch {
		case t.kind == tokEOF, t.kind == tokIdent && depth == 0 && strings.EqualFold(t.text, "from"):
			return n
		case t.kind != tokPunct:
		case t.text == "(":
			depth++
		case t.text == ")":
			if depth == 0 {
				return n
			}
			depth--
		case t.text == "," && depth == 0:
			n++
		}
	}
	return n
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.kw("create"):
		if p.kw("table") {
			return p.createTable()
		}
		unique := p.kw("unique")
		if p.kw("index") {
			return p.createIndex(unique)
		}
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	case p.kw("insert"):
		return p.insert()
	case p.kw("explain"):
		analyze := p.kw("analyze")
		if err := p.expectKw("select"); err != nil {
			return nil, err
		}
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		sel.Explain = true
		sel.Analyze = analyze
		return sel, nil
	case p.kw("select"):
		return p.selectStmt()
	case p.kw("update"):
		return p.update()
	case p.kw("delete"):
		return p.deleteStmt()
	default:
		return nil, p.errf("expected a statement, got %q", p.peek().text)
	}
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		if p.kw("primary") {
			if err := p.expectKw("key"); err != nil {
				return nil, err
			}
			if ct.PrimaryKey, err = p.ident(); err != nil {
				return nil, err
			}
			if p.kw("using") {
				if ct.Using, err = p.ident(); err != nil {
					return nil, err
				}
			}
		} else {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, err := p.ident()
			if err != nil {
				return nil, err
			}
			def := ColDef{Name: col, Type: strings.ToUpper(typ)}
			if def.Type == "REF" {
				if err := p.expectPunct("("); err != nil {
					return nil, err
				}
				if def.RefTable, err = p.ident(); err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			}
			ct.Cols = append(ct.Cols, def)
		}
		if p.punct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if ct.PrimaryKey == "" {
		return nil, p.errf("CREATE TABLE needs PRIMARY KEY <col> — every relation is accessed through an index")
	}
	return ct, nil
}

func (p *parser) createIndex(unique bool) (Statement, error) {
	if err := p.expectKw("on"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	ci := &CreateIndex{Table: table, Column: col, Unique: unique}
	if p.kw("using") {
		if ci.Using, err = p.ident(); err != nil {
			return nil, err
		}
	}
	return ci, nil
}

func (p *parser) insert() (Statement, error) {
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		row := make([]Expr, 0, p.listLen())
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.punct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.punct(",") {
			continue
		}
		break
	}
	return ins, nil
}

// expr parses a literal or REF(table, column, value).
func (p *parser) expr() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber, tokString:
		p.toks[p.i].value = true
		e, err := literal(p.toks, p.i)
		p.i++
		return e, err
	case tokIdent:
		switch {
		case strings.EqualFold(t.text, "null"):
			p.i++
			return Expr{Kind: ExprNull}, nil
		case strings.EqualFold(t.text, "true"):
			p.i++
			return Expr{Kind: ExprBool, Bool: true}, nil
		case strings.EqualFold(t.text, "false"):
			p.i++
			return Expr{Kind: ExprBool, Bool: false}, nil
		case strings.EqualFold(t.text, "ref"):
			p.i++
			return p.refExpr()
		}
	}
	return Expr{}, p.errf("expected a value, got %q", t.text)
}

func (p *parser) refExpr() (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return Expr{}, err
	}
	table, err := p.ident()
	if err != nil {
		return Expr{}, err
	}
	if err := p.expectPunct(","); err != nil {
		return Expr{}, err
	}
	col, err := p.ident()
	if err != nil {
		return Expr{}, err
	}
	if err := p.expectPunct(","); err != nil {
		return Expr{}, err
	}
	val, err := p.expr()
	if err != nil {
		return Expr{}, err
	}
	if err := p.expectPunct(")"); err != nil {
		return Expr{}, err
	}
	return Expr{Kind: ExprRef, Ref: &RefExpr{Table: table, Column: col, Value: &val}}, nil
}

func (p *parser) selectStmt() (*Select, error) {
	sel := &Select{Limit: -1}
	sel.Distinct = p.kw("distinct")
	// Column list or *.
	var items []SelectItem
	hasAgg := false
	if p.punct("*") {
		// all columns
	} else {
		items = make([]SelectItem, 0, p.listLen())
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			items = append(items, item)
			hasAgg = hasAgg || item.Agg != ""
			if p.punct(",") {
				continue
			}
			break
		}
	}
	if hasAgg {
		sel.Items = items
	} else if len(items) > 0 {
		sel.Cols = make([]string, len(items))
		for i, it := range items {
			sel.Cols[i] = it.Col
		}
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	var err error
	if sel.From, err = p.ident(); err != nil {
		return nil, err
	}
	if sel.FromAlias, err = p.tableAlias(); err != nil {
		return nil, err
	}
	scope := []string{sel.From}
	if sel.FromAlias != "" {
		scope[0] = sel.FromAlias
	}
	for p.kw("join") {
		j, name, err := p.join(scope)
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, j)
		scope = append(scope, name)
	}
	if p.kw("where") {
		if sel.Where, err = p.whereConds(); err != nil {
			return nil, err
		}
	}
	if p.kw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			col, err := p.qualifiedName()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, col)
			if p.punct(",") {
				continue
			}
			break
		}
	}
	if p.kw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			item, err := p.orderItem()
			if err != nil {
				return nil, err
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.punct(",") {
				continue
			}
			break
		}
	}
	if p.kw("limit") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errf("LIMIT needs a number")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		sel.Limit = n
	}
	return sel, nil
}

// selectItem parses one select-list entry: a (qualified) column, or an
// aggregate FN(col) / COUNT(*). An aggregate keyword not followed by "("
// is an ordinary identifier — a column may be named count.
func (p *parser) selectItem() (SelectItem, error) {
	t := p.peek()
	if t.kind == tokIdent {
		fn := strings.ToUpper(t.text)
		switch fn {
		case "COUNT", "SUM", "MIN", "MAX", "AVG":
			if n := p.toks[p.i+1]; n.kind == tokPunct && n.text == "(" {
				p.i += 2 // the function name and "("
				col := ""
				if p.punct("*") {
					col = "*"
				} else {
					c, err := p.qualifiedName()
					if err != nil {
						return SelectItem{}, err
					}
					col = c
				}
				if err := p.expectPunct(")"); err != nil {
					return SelectItem{}, err
				}
				if col == "*" && fn != "COUNT" {
					return SelectItem{}, p.errf("%s(*) is not valid — only COUNT takes *", fn)
				}
				return SelectItem{Agg: fn, Col: col}, nil
			}
		}
	}
	col, err := p.qualifiedName()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: col}, nil
}

// orderItem parses one ORDER BY term: a (qualified) column name or a
// 1-based output ordinal, optionally followed by ASC or DESC.
func (p *parser) orderItem() (OrderItem, error) {
	var col string
	if t := p.peek(); t.kind == tokNumber {
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return OrderItem{}, p.errf("ORDER BY ordinal must be a positive integer, got %q", t.text)
		}
		p.i++
		col = t.text
	} else {
		c, err := p.qualifiedName()
		if err != nil {
			return OrderItem{}, err
		}
		col = c
	}
	desc := false
	if p.kw("desc") {
		desc = true
	} else {
		p.kw("asc") // explicit ASC is the default
	}
	return OrderItem{Col: col, Desc: desc}, nil
}

// qualifiedName parses ident[.ident].
func (p *parser) qualifiedName() (string, error) {
	a, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.punct(".") {
		b, err := p.ident()
		if err != nil {
			return "", err
		}
		return a + "." + b, nil
	}
	return a, nil
}

// tableAlias parses the optional [AS] alias after a table name in FROM
// or JOIN. A bare identifier is an alias unless it starts a clause.
func (p *parser) tableAlias() (string, error) {
	if p.kw("as") {
		return p.ident()
	}
	t := p.peek()
	if t.kind == tokIdent && !clauseKeyword(t.text) {
		p.i++
		return t.text, nil
	}
	return "", nil
}

// clauseKeyword reports whether the identifier starts a clause (and so
// cannot be a bare table alias).
func clauseKeyword(s string) bool {
	for _, kw := range [...]string{"as", "on", "join", "where", "group", "order", "limit"} {
		if strings.EqualFold(s, kw) {
			return true
		}
	}
	return false
}

// join parses one chain step: table [[AS] alias] ON side = side, where
// a side is name.column or name.SELF. The side naming the newly joined
// relation becomes RightCol; the other side must name an earlier
// relation of scope and becomes LeftTable/LeftCol ("" = SELF). A new
// relation whose scope name is already in scope leaves both sides naming
// it; they are taken in written order, and the binder rejects the
// duplicate name as it does the fluent Join's. Returns the step and the
// new relation's scope name.
func (p *parser) join(scope []string) (Join, string, error) {
	table, err := p.ident()
	if err != nil {
		return Join{}, "", err
	}
	alias, err := p.tableAlias()
	if err != nil {
		return Join{}, "", err
	}
	name := table
	if alias != "" {
		name = alias
	}
	if err := p.expectKw("on"); err != nil {
		return Join{}, "", err
	}
	t1, c1, err := p.joinSide()
	if err != nil {
		return Join{}, "", err
	}
	if err := p.expectPunct("="); err != nil {
		return Join{}, "", err
	}
	t2, c2, err := p.joinSide()
	if err != nil {
		return Join{}, "", err
	}
	in := func(n string) bool {
		for _, s := range scope {
			if s == n {
				return true
			}
		}
		return false
	}
	j := Join{Table: table, Alias: alias}
	switch {
	case t1 == name && t2 != name && in(t2):
		j.LeftTable, j.LeftCol, j.RightCol = t2, c2, c1
	case t2 == name && in(t1):
		j.LeftTable, j.LeftCol, j.RightCol = t1, c1, c2
	default:
		return Join{}, "", p.errf("join condition must relate %s to an earlier table (%s)",
			name, strings.Join(scope, ", "))
	}
	return j, name, nil
}

// joinSide parses table.column or table.SELF; returns column "" for SELF.
func (p *parser) joinSide() (table, col string, err error) {
	if table, err = p.ident(); err != nil {
		return "", "", err
	}
	if err = p.expectPunct("."); err != nil {
		return "", "", err
	}
	if col, err = p.ident(); err != nil {
		return "", "", err
	}
	if strings.EqualFold(col, "self") {
		col = ""
	}
	return table, col, nil
}

func (p *parser) whereConds() ([]Cond, error) {
	var out []Cond
	for {
		col, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokPunct {
			return nil, p.errf("expected an operator, got %q", t.text)
		}
		op := t.text
		switch op {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			if op == "<>" {
				op = "!="
			}
		default:
			return nil, p.errf("bad operator %q", op)
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, Cond{Column: col, Op: op, Value: val})
		if p.kw("and") {
			continue
		}
		return out, nil
	}
}

func (p *parser) update() (Statement, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	val, err := p.expr()
	if err != nil {
		return nil, err
	}
	u := &Update{Table: table, Column: col, Value: val}
	if p.kw("where") {
		if u.Where, err = p.whereConds(); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: table}
	if p.kw("where") {
		if d.Where, err = p.whereConds(); err != nil {
			return nil, err
		}
	}
	return d, nil
}
