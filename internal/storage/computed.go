package storage

// vector is one computed column of a TempList, in one of two forms chosen
// by the values stored in it, never by its producer:
//
//   - scalar: every non-NULL value has one type, Int, Float or Bool, and
//     only its 8-byte payload (the Value's num word) is kept, one per row.
//     A NULL is a bit in a bitmap that exists only once a NULL was stored.
//   - general: one full Value per row — a Str or Ref column, or one whose
//     values mix scalar types.
//
// A vector starts scalar with type Null; its first non-NULL value fixes
// the type, and the first value that does not fit turns it general. Every
// reader rebuilds the same Value from either form, so nothing outside this
// file learns which form a vector has.
type vector struct {
	typ  Type     // scalar type; Null while no non-NULL value is stored
	num  []uint64 // scalar payloads, one per row
	null []uint64 // scalar NULL bitmap, bit i for row i; nil until the first NULL
	vals []Value  // the general form; nil while the vector is scalar
}

// isNull reports whether row i of a scalar vector holds NULL.
func (v *vector) isNull(i int) bool {
	return v.null != nil && v.null[i>>6]&(1<<(uint(i)&63)) != 0
}

// setNull marks row i of a scalar vector NULL, allocating the bitmap on the
// first NULL.
func (v *vector) setNull(i int) {
	if v.null == nil {
		v.null = make([]uint64, (len(v.num)+63)/64)
	}
	v.null[i>>6] |= 1 << (uint(i) & 63)
}

// at returns row i's value.
func (v *vector) at(i int) Value {
	if v.vals != nil {
		return v.vals[i]
	}
	if v.isNull(i) {
		return NullValue
	}
	return scalarValue(v.typ, v.num[i])
}

// set stores x as row i's value, turning the vector general when x does
// not fit its scalar form.
func (v *vector) set(i int, x Value) {
	if v.vals != nil {
		v.vals[i] = x
		return
	}
	switch {
	case x.typ == Null:
		v.setNull(i)
		return
	case x.typ == v.typ:
	case v.typ == Null && isScalar(x.typ):
		v.typ = x.typ
	default:
		v.generalize()
		v.vals[i] = x
		return
	}
	v.num[i] = x.num
	if v.null != nil {
		v.null[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// generalize rebuilds a scalar vector as one Value per row.
func (v *vector) generalize() {
	vals := make([]Value, len(v.num))
	for i := range vals {
		vals[i] = v.at(i)
	}
	v.num, v.null, v.vals = nil, nil, vals
}

// gather copies rows [lo, hi) into out, which has length hi-lo.
func (v *vector) gather(lo, hi int, out []Value) {
	switch {
	case v.vals != nil:
		copy(out, v.vals[lo:hi])
	case v.null == nil:
		for j, x := range v.num[lo:hi] {
			out[j] = scalarValue(v.typ, x)
		}
	default:
		for j := range out[:hi-lo] {
			out[j] = v.at(lo + j)
		}
	}
}

// gatherRows copies the given rows into out, which has length len(rows).
func (v *vector) gatherRows(rows []int32, out []Value) {
	switch {
	case v.vals != nil:
		for j, r := range rows {
			out[j] = v.vals[r]
		}
	case v.null == nil:
		for j, r := range rows {
			out[j] = scalarValue(v.typ, v.num[r])
		}
	default:
		for j, r := range rows {
			out[j] = v.at(int(r))
		}
	}
}

// takeVectors gathers every vector of src by rows into vectors of the same
// forms: the scalar payloads share one slab and the general values another,
// and a bitmap is allocated only for a vector that takes a NULL.
func takeVectors(src []vector, rows []int32) []vector {
	n := len(rows)
	general := 0
	for k := range src {
		if src[k].vals != nil {
			general++
		}
	}
	num := make([]uint64, n*(len(src)-general))
	vals := make([]Value, n*general)
	out := make([]vector, len(src))
	for k := range src {
		s, d := &src[k], &out[k]
		if s.vals != nil {
			d.vals, vals = vals[:n:n], vals[n:]
			for j, r := range rows {
				d.vals[j] = s.vals[r]
			}
			continue
		}
		d.typ = s.typ
		d.num, num = num[:n:n], num[n:]
		for j, r := range rows {
			d.num[j] = s.num[r]
		}
		if s.null != nil {
			for j, r := range rows {
				if s.isNull(int(r)) {
					d.setNull(j)
				}
			}
		}
	}
	return out
}
