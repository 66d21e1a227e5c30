package storage

// Cell arrays. A relation whose fields are all Int, Float or Bool stores a
// field the way §2.1 stores a fixed-length field, at its own width: one
// 8-byte cell holding the value's num word (int64 bits, IEEE bits, 0/1).
// The n cells of a row are preceded by (n+7)/8 words holding one type tag
// byte a field, which is the schema's type, or Null for a NULL (whose cell
// is 0): eight Int fields take 72 bytes, not eight 24-byte Values. The tag
// of field i sits n-i bytes before the first cell, so a field is read back
// from the array alone — Tuple.Field needs neither the schema nor a
// branch on NULL, which keeps it small enough to inline into the operators'
// loops, and a tuple staged but not yet placed in a partition reads the
// same as one installed. A cell array holds no pointer, so it is memory
// the collector never scans.
//
// Every value reads back bit for bit as it was stored: a NaN's payload,
// -0 and the extreme integers unchanged.

// tagWords is the number of type tag words of a row of n fields.
func tagWords(n int) int { return (n + 7) / 8 }

// cellWords is the length of the cell array of a row of n fields.
func cellWords(n int) int { return tagWords(n) + n }

// putCells writes vals into w, a cell array of len(vals) fields, whatever
// w held before, and returns it as a field array. vals must have passed
// the schema's Validate on an all-scalar relation.
func putCells(w []uint64, vals []Value) fields {
	n := len(vals)
	clear(w[:tagWords(n)])
	f := cellFields(w, n)
	for i, v := range vals {
		f.setCell(i, n, v)
	}
	return f
}
