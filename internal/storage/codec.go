package storage

import (
	"encoding/binary"
	"fmt"
)

// The codec serializes partition images for the disk copy of the database
// (§2.4, Figure 2). Ref values are swizzled to tuple IDs on disk and
// resolved back to pointers by the Loader after all working-set partitions
// are in memory.

// ValueImage is the on-disk form of a Value.
type ValueImage struct {
	Type  Type
	Num   uint64 // Int/Float/Bool payload
	Str   string // Str payload
	RefID uint64 // Ref payload (tuple ID)
}

// TupleImage is the on-disk form of a Tuple. Its values are Vals, or Row:
// a tuple's installed field array, held by reference — as the recovery
// log holds an inserted row — and imaged only as it is encoded or loaded.
// A Version cannot be written; to change a value, image the row into Vals
// first.
type TupleImage struct {
	ID   uint64
	Vals []ValueImage
	Row  Version
}

// PartitionImage is the on-disk form of one partition — the paper's unit
// of recovery.
type PartitionImage struct {
	Relation string
	PartID   int
	LSN      uint64
	Tuples   []TupleImage
}

// ImageOf captures a value for serialization. A Ref is read as the ID of
// the header it points at, forwarding addresses not followed: a moved
// tuple keeps its ID, so the answer is the same, and the log device can
// swizzle a logged row without reading a forward pointer a concurrent
// move may be writing.
func ImageOf(v Value) ValueImage {
	switch v.Type() {
	case Ref:
		return ValueImage{Type: Ref, RefID: v.ref().id}
	case Str:
		return ValueImage{Type: Str, Str: v.Str()}
	default:
		return ValueImage{Type: v.typ, Num: v.num}
	}
}

// Snapshot captures the partition's live tuples as an image.
func (p *Partition) Snapshot() PartitionImage {
	img := PartitionImage{Relation: p.rel.name, PartID: p.id, LSN: p.LSN()}
	p.scan(func(t *Tuple) bool {
		row := t.version()
		ti := TupleImage{ID: t.id, Vals: make([]ValueImage, row.Len())}
		for i := range ti.Vals {
			ti.Vals[i] = ImageOf(row.At(i))
		}
		img.Tuples = append(img.Tuples, ti)
		return true
	})
	return img
}

const codecMagic = uint32(0x4d4d4442) // "MMDB"

// AppendPartition appends the serialization of img to buf.
func AppendPartition(buf []byte, img PartitionImage) []byte {
	buf = binary.BigEndian.AppendUint32(buf, codecMagic)
	buf = appendString(buf, img.Relation)
	buf = binary.BigEndian.AppendUint32(buf, uint32(img.PartID))
	buf = binary.BigEndian.AppendUint64(buf, img.LSN)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(img.Tuples)))
	for _, t := range img.Tuples {
		buf = binary.BigEndian.AppendUint64(buf, t.ID)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(t.Vals)+t.Row.Len()))
		for _, v := range t.Vals {
			buf = append(buf, byte(v.Type))
			switch v.Type {
			case Null:
			case Str:
				buf = appendString(buf, v.Str)
			case Ref:
				buf = binary.BigEndian.AppendUint64(buf, v.RefID)
			default:
				buf = binary.BigEndian.AppendUint64(buf, v.Num)
			}
		}
		// A Row encodes as its ImageOf values would.
		for i := range t.Row.Len() {
			v := t.Row.At(i)
			buf = append(buf, byte(v.typ))
			switch v.typ {
			case Null:
			case Str:
				buf = appendString(buf, v.str())
			case Ref:
				buf = binary.BigEndian.AppendUint64(buf, v.ref().id)
			default:
				buf = binary.BigEndian.AppendUint64(buf, v.num)
			}
		}
	}
	return buf
}

// DecodePartition parses a serialized partition image.
func DecodePartition(data []byte) (PartitionImage, error) {
	return new(ImageScratch).Decode(data)
}

// ImageScratch is the memory of one decoded image, for a caller that
// decodes image after image and is done with each before the next — the
// log device folding records into the disk copy, which would otherwise
// allocate a partition's worth of tuples to change one.
type ImageScratch struct {
	tuples []TupleImage
	vals   []ValueImage // every tuple's Vals, back to back
}

// Decode is DecodePartition into s's memory: the image it returns is
// valid until the next Decode on s.
func (s *ImageScratch) Decode(data []byte) (PartitionImage, error) {
	d := decoder{buf: data}
	var img PartitionImage
	if magic := d.uint32(); magic != codecMagic {
		return img, fmt.Errorf("storage: bad partition image magic %#x", magic)
	}
	img.Relation = d.string()
	img.PartID = int(d.uint32())
	img.LSN = d.uint64()
	n := int(d.uint32())
	if d.err == nil && n > len(data) { // cheap sanity bound: >= 1 byte/tuple
		return img, fmt.Errorf("storage: implausible tuple count %d", n)
	}
	if cap(s.tuples) < n {
		s.tuples = make([]TupleImage, 0, n)
	}
	img.Tuples, s.vals = s.tuples[:0], s.vals[:0]
	for i := 0; i < n && d.err == nil; i++ {
		t := TupleImage{ID: d.uint64()}
		nf := int(d.uint16())
		if i == 0 {
			// Tuples of one relation have one arity: size the arena for
			// the image now (a value takes at least a byte, so a corrupt
			// count cannot ask for more than the data is long).
			if want := min(n*nf, len(data)); cap(s.vals) < want {
				s.vals = make([]ValueImage, 0, want)
			}
		}
		first := len(s.vals)
		for f := 0; f < nf && d.err == nil; f++ {
			v := ValueImage{Type: Type(d.byte())}
			switch v.Type {
			case Null:
			case Str:
				v.Str = d.string()
			case Ref:
				v.RefID = d.uint64()
			case Int, Float, Bool:
				v.Num = d.uint64()
			default:
				return img, fmt.Errorf("storage: bad value type %d in tuple %d", v.Type, t.ID)
			}
			s.vals = append(s.vals, v)
		}
		// Capped, so nothing appends into the next tuple's values. When
		// s.vals grows mid-image, earlier tuples keep the array they
		// were cut from, which still holds their values.
		t.Vals = s.vals[first:len(s.vals):len(s.vals)]
		img.Tuples = append(img.Tuples, t)
	}
	if d.err != nil {
		return img, d.err
	}
	if len(d.buf) != 0 {
		return img, fmt.Errorf("storage: %d trailing bytes after partition image", len(d.buf))
	}
	return img, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("storage: truncated partition image (need %d bytes, have %d)", n, len(d.buf))
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) string() string {
	n := int(d.uint32())
	if d.err == nil && n > len(d.buf) {
		d.err = fmt.Errorf("storage: truncated string (need %d bytes, have %d)", n, len(d.buf))
		return ""
	}
	b := d.take(n)
	return string(b)
}

// valueFromImage rebuilds a non-Ref value. Ref values are resolved by the
// Loader once all tuples exist.
func valueFromImage(v ValueImage) Value {
	switch v.Type {
	case Str:
		return StringValue(v.Str)
	case Ref:
		return NullValue // patched by Loader.Finish
	default:
		return Value{typ: v.Type, num: v.Num}
	}
}

// Loader rebuilds relations from partition images, resolving Ref fields
// (pointer swizzling) once every required tuple is present. Load order is
// unconstrained — the recovery manager loads working-set partitions first
// and the rest in the background.
type Loader struct {
	rels    map[string]*Relation
	byID    map[uint64]*Tuple
	pending []pendingRef
	row     []Value // one tuple's values, rebuilt from its image for each tuple
}

type pendingRef struct {
	t     *Tuple
	field int
	refID uint64
}

// NewLoader creates a loader over the given relations.
func NewLoader(rels ...*Relation) *Loader {
	ld := &Loader{rels: make(map[string]*Relation), byID: make(map[uint64]*Tuple)}
	for _, r := range rels {
		ld.rels[r.name] = r
	}
	return ld
}

// LoadPartition inserts every tuple of the image into its relation,
// preserving the partition ID and LSN. Ref fields stay unresolved until
// Finish.
func (ld *Loader) LoadPartition(img PartitionImage) error {
	r, ok := ld.rels[img.Relation]
	if !ok {
		return fmt.Errorf("storage: image references unknown relation %q", img.Relation)
	}
	p := r.ensurePartition(img.PartID)
	p.SetLSN(img.LSN)
	for _, ti := range img.Tuples {
		if _, dup := ld.byID[ti.ID]; dup {
			return fmt.Errorf("storage: duplicate tuple ID %d in image %s/%d", ti.ID, img.Relation, img.PartID)
		}
		ld.row = ld.row[:0]
		for _, vi := range ti.Vals {
			ld.row = append(ld.row, valueFromImage(vi))
		}
		for i := range ti.Row.Len() {
			v := ti.Row.At(i)
			if v.typ == Ref {
				v = NullValue // patched by Loader.Finish
			}
			ld.row = append(ld.row, v)
		}
		t, err := r.loadInto(p, ti.ID, ld.row)
		if err != nil {
			return err
		}
		ld.byID[ti.ID] = t
		for i, vi := range ti.Vals {
			if vi.Type == Ref {
				ld.pending = append(ld.pending, pendingRef{t: t, field: i, refID: vi.RefID})
			}
		}
		for i := range ti.Row.Len() {
			if v := ti.Row.At(i); v.typ == Ref {
				ld.pending = append(ld.pending, pendingRef{t: t, field: i, refID: v.ref().id})
			}
		}
	}
	return nil
}

// Finish resolves all pending Ref fields. Every referenced tuple must have
// been loaded. The swizzle is the one write into an installed field array
// (everywhere else a change installs a fresh one, see Relation.Update). It
// is legal only because no snapshot of a relation is published before its
// load has finished, so no clone shares the array yet.
func (ld *Loader) Finish() error {
	for _, p := range ld.pending {
		target, ok := ld.byID[p.refID]
		if !ok {
			return fmt.Errorf("storage: tuple %d field %d references missing tuple %d", p.t.id, p.field, p.refID)
		}
		// A Ref field makes the relation's arrays Values, not cells.
		p.t.vals.values(int(p.t.arity))[p.field] = RefValue(target)
	}
	ld.pending = nil
	return nil
}

// ensurePartition grows the relation's partition list so partition id
// exists, creating empty partitions as needed.
func (r *Relation) ensurePartition(id int) *Partition {
	for len(r.parts) <= id {
		r.newPartition()
	}
	return r.parts[id]
}

// loadInto places a tuple with a known ID into a specific partition,
// bypassing observers (indices are rebuilt after reload). The header and
// field array come from the relation's slabs, as an inserted tuple's do;
// vals is copied, so the caller may reuse it.
func (r *Relation) loadInto(p *Partition, id uint64, vals []Value) (*Tuple, error) {
	if err := r.schema.Validate(vals); err != nil {
		return nil, fmt.Errorf("load into %s: %w", r.name, err)
	}
	t := r.newTuple(id, vals)
	p.place(t)
	r.count++
	r.ids.Reserve(id)
	return t, nil
}
