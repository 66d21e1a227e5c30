package sqlparser

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColDef is one column of a CREATE TABLE.
type ColDef struct {
	Name     string
	Type     string // INT, FLOAT, STRING, BOOL, REF
	RefTable string // for REF(table)
}

// CreateTable is CREATE TABLE name (cols..., PRIMARY KEY col [USING kind]).
type CreateTable struct {
	Name       string
	Cols       []ColDef
	PrimaryKey string
	Using      string // index kind; empty = engine default
}

func (*CreateTable) stmt() {}

// CreateIndex is CREATE [UNIQUE] INDEX ON table (column) [USING kind].
type CreateIndex struct {
	Table  string
	Column string
	Using  string
	Unique bool
}

func (*CreateIndex) stmt() {}

// ExprKind tags a literal expression.
type ExprKind int

// Literal kinds.
const (
	ExprNull ExprKind = iota
	ExprInt
	ExprFloat
	ExprString
	ExprBool
	ExprRef
)

// Expr is a literal value, or a REF(table, column, value) pointer
// expression resolved at execution time.
type Expr struct {
	Kind  ExprKind
	Int   int64
	Float float64
	Str   string
	Bool  bool
	Ref   *RefExpr
	// Slot is the 1-based position, among the statement's literals
	// (Lexed.Literals), of the number or string this value was read
	// from; 0 for NULL, TRUE, FALSE and REF.
	Slot int
}

// RefExpr names a unique tuple: the row of Table whose Column equals Value.
type RefExpr struct {
	Table  string
	Column string
	Value  *Expr
}

// Insert is INSERT INTO table VALUES (...)[, (...)].
type Insert struct {
	Table string
	Rows  [][]Expr
}

func (*Insert) stmt() {}

// Cond is one WHERE conjunct: column OP literal.
type Cond struct {
	Column string
	Op     string // = != < <= > >=
	Value  Expr
}

// Join is one step of a FROM join chain: JOIN table [[AS] alias] ON
// side = side, where a side is name.column or name.SELF (tuple
// identity). One side of the ON must reference the relation this step
// joins — its column lands in RightCol — and the other side may
// reference any earlier relation of the chain by its scope name (the
// alias if one was given, else the table name), recorded in LeftTable
// and LeftCol. A column of "" means SELF.
type Join struct {
	Table     string
	Alias     string // "" = no alias; the table name is the scope name
	LeftTable string // scope name of the earlier relation the ON references
	LeftCol   string // its column, or "" for SELF
	RightCol  string // column of the joined table, or "" for SELF
}

// SelectItem is one output column of a SELECT list: a plain column, or an
// aggregate function over a column (Agg non-empty). Col "*" appears only
// as COUNT(*).
type SelectItem struct {
	Agg string // "", or COUNT / SUM / MIN / MAX / AVG
	Col string
}

// OrderItem is one ORDER BY term: an output column name, or a 1-based
// output ordinal written as digits (SQL's "ORDER BY 2").
type OrderItem struct {
	Col  string
	Desc bool
}

// Select is SELECT [DISTINCT] cols FROM table [[AS] alias]
// [JOIN ... ON ...]* [WHERE ...] [GROUP BY ...] [ORDER BY ...]
// [LIMIT n]; Explain marks EXPLAIN SELECT, and Analyze additionally
// marks EXPLAIN ANALYZE SELECT (execute and report the operator trace).
//
// A select list without aggregates populates Cols (empty = *) and leaves
// Items nil; a list containing any aggregate populates Items with the
// full list, in order, and leaves Cols nil.
type Select struct {
	Explain   bool
	Analyze   bool
	Distinct  bool
	Cols      []string     // plain column list; empty = *
	Items     []SelectItem // full list when aggregates are present
	From      string
	FromAlias string // "" = no alias
	Joins     []Join // the JOIN chain, in written order
	Where     []Cond
	GroupBy   []string
	OrderBy   []OrderItem
	Limit     int // -1 = none
}

func (*Select) stmt() {}

// Update is UPDATE table SET col = expr [WHERE ...].
type Update struct {
	Table  string
	Column string
	Value  Expr
	Where  []Cond
}

func (*Update) stmt() {}

// Delete is DELETE FROM table [WHERE ...].
type Delete struct {
	Table string
	Where []Cond
}

func (*Delete) stmt() {}
