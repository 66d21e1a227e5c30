package storage

import (
	"fmt"
	"math"
)

// FieldDef describes one attribute of a relation.
type FieldDef struct {
	Name string
	Type Type
	// ForeignKey names the relation this field references. Per §2.1, the
	// MM-DBMS substitutes a tuple-pointer field for an identified foreign
	// key, so a ForeignKey field holds Ref values at runtime and enables
	// precomputed joins. Empty for ordinary fields.
	ForeignKey string
}

// Schema is an ordered list of field definitions.
type Schema struct {
	fields []FieldDef
	byName map[string]int
}

// maxFields is the most fields a schema may have: a tuple header keeps its
// arity in 16 bits.
const maxFields = math.MaxUint16

// NewSchema builds a schema from field definitions. There must be between 1
// and maxFields of them; field names must be non-empty and unique;
// foreign-key fields must be declared with type Ref.
func NewSchema(fields ...FieldDef) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("storage: schema needs at least one field")
	}
	if len(fields) > maxFields {
		return nil, fmt.Errorf("storage: schema has %d fields, at most %d fit a tuple header", len(fields), maxFields)
	}
	s := &Schema{
		fields: append([]FieldDef(nil), fields...),
		byName: make(map[string]int, len(fields)),
	}
	for i, f := range s.fields {
		if f.Name == "" {
			return nil, fmt.Errorf("storage: field %d has empty name", i)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("storage: duplicate field %q", f.Name)
		}
		if f.ForeignKey != "" && f.Type != Ref {
			return nil, fmt.Errorf("storage: foreign-key field %q must have type ref, got %s", f.Name, f.Type)
		}
		s.byName[f.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and examples.
func MustSchema(fields ...FieldDef) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of fields.
func (s *Schema) Arity() int { return len(s.fields) }

// Field returns the definition of field i.
func (s *Schema) Field(i int) FieldDef { return s.fields[i] }

// Fields returns a copy of all field definitions.
func (s *Schema) Fields() []FieldDef { return append([]FieldDef(nil), s.fields...) }

// FieldIndex returns the position of the named field, or -1.
func (s *Schema) FieldIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Validate checks that vals conforms to the schema: correct arity and each
// value one its field may hold (CheckField).
func (s *Schema) Validate(vals []Value) error {
	if len(vals) != len(s.fields) {
		return fmt.Errorf("storage: got %d values for %d fields", len(vals), len(s.fields))
	}
	for i, v := range vals {
		if err := s.CheckField(i, v); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
	}
	return nil
}

// CheckField checks that field i may hold v: v is NULL or of the field's
// declared type (Ref for foreign keys). The error names the field and
// both types; the caller prefixes it with its package.
func (s *Schema) CheckField(i int, v Value) error {
	if v.IsNull() || v.Type() == s.fields[i].Type {
		return nil
	}
	return fmt.Errorf("field %q wants %s, got %s", s.fields[i].Name, s.fields[i].Type, v.Type())
}
