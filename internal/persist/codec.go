package persist

import (
	"encoding/binary"
	"fmt"
	"math"

	"odin/internal/ir"
	"odin/internal/mir"
	"odin/internal/obj"
)

// Entry payloads use a hand-rolled varint codec instead of encoding/gob:
// entries are decoded on the warm-start hot path (one per fragment, before
// the engine can serve its first executable), and gob's reflective setup
// cost dominated warm loads. The layout is a flat field-order walk of Entry
// and obj.Object — the same explicit-field discipline as the blob header.
// Each payload opens with a layout version byte: changing Entry or
// obj.Object means bumping Schema, changing EngineState means bumping
// stateCodecVersion. There is no tag-based evolution, by design: skewed
// payloads are evicted and recompiled (or, for a snapshot, re-derived),
// never migrated.
//
// Decoding is corruption-tolerant: every length is bounds-checked against
// the remaining input before allocation, and any violation returns
// ErrCorrupt (never a panic or an over-allocation), so a bit-flipped count
// degrades exactly like a bit-flipped checksum.

// entryCodecVersion guards the payload layout inside the schema-stamped
// blob; it changes together with Schema but catches encoder/decoder drift
// within a development cycle.
const entryCodecVersion = 1

// stateCodecVersion guards the snapshot payload layout. It moves on its own
// so that a snapshot change leaves the entry format, and every cache
// directory written under it, loadable. Version 1 carried a function-cache
// metadata section and the supervisor's breaker and probe quarantine; a
// version-1 snapshot is refused as skew, and the engine starts without it.
const stateCodecVersion = 2

type encoder struct{ buf []byte }

func (e *encoder) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) byte(b byte)  { e.buf = append(e.buf, b) }
func (e *encoder) bool(b bool)  { e.buf = append(e.buf, boolByte(b)) }
func (e *encoder) str(s string) { e.u64(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, d.off)
	}
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bool() bool { return d.byte() != 0 }

// count reads a collection length and bounds it by the bytes remaining
// (each element costs at least one byte), so a corrupt count can never
// drive an allocation past the payload size.
func (d *decoder) count() int {
	v := d.u64()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.buf)-d.off) {
		d.fail("length exceeds payload")
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) bytesOrNil() []byte {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}

// intFrom converts a decoded varint to int, rejecting values that do not
// round-trip (a corrupt payload on 32-bit platforms).
func (d *decoder) int() int {
	v := d.i64()
	if int64(int(v)) != v || v > math.MaxInt32 || v < math.MinInt32 {
		d.fail("int out of range")
		return 0
	}
	return int(v)
}

func encodeInst(e *encoder, in *mir.Inst) {
	e.byte(byte(in.Op))
	e.byte(byte(in.Rd))
	e.byte(byte(in.Rs1))
	e.byte(byte(in.Rs2))
	e.i64(in.Imm)
	e.i64(int64(in.ALUOp))
	e.i64(int64(in.Pred))
	e.i64(int64(in.Width))
	e.bool(in.SignExt)
	e.i64(in.Size)
	e.str(in.Sym)
	e.i64(int64(in.Target))
	e.i64(int64(in.FuncIdx))
	e.i64(in.ProbeAddr)
}

func decodeInst(d *decoder, in *mir.Inst) {
	in.Op = mir.Op(d.byte())
	in.Rd = mir.Reg(d.byte())
	in.Rs1 = mir.Reg(d.byte())
	in.Rs2 = mir.Reg(d.byte())
	in.Imm = d.i64()
	in.ALUOp = ir.Op(d.int())
	in.Pred = ir.Pred(d.int())
	in.Width = ir.ScalarType(d.int())
	in.SignExt = d.bool()
	in.Size = d.i64()
	in.Sym = d.str()
	in.Target = d.int()
	in.FuncIdx = d.int()
	in.ProbeAddr = d.i64()
}

func encodeObject(e *encoder, o *obj.Object) {
	e.str(o.Name)
	e.u64(uint64(len(o.Funcs)))
	for i := range o.Funcs {
		f := &o.Funcs[i]
		e.str(f.Name)
		e.byte(byte(f.Linkage))
		e.i64(int64(f.NumBlocks))
		e.u64(uint64(len(f.BlockStarts)))
		for _, bs := range f.BlockStarts {
			e.i64(int64(bs))
		}
		e.u64(uint64(len(f.Code)))
		for j := range f.Code {
			encodeInst(e, &f.Code[j])
		}
	}
	e.u64(uint64(len(o.Datas)))
	for i := range o.Datas {
		ds := &o.Datas[i]
		e.str(ds.Name)
		e.byte(byte(ds.Linkage))
		e.i64(ds.Size)
		e.bytes(ds.Init)
		e.bool(ds.Const)
	}
	e.u64(uint64(len(o.Aliases)))
	for i := range o.Aliases {
		a := &o.Aliases[i]
		e.str(a.Name)
		e.str(a.Target)
		e.byte(byte(a.Linkage))
	}
	e.u64(uint64(len(o.Imports)))
	for _, im := range o.Imports {
		e.str(im)
	}
}

func decodeObject(d *decoder) *obj.Object {
	o := &obj.Object{Name: d.str()}
	nf := d.count()
	if d.err != nil {
		return nil
	}
	o.Funcs = make([]obj.FuncSym, nf)
	for i := 0; i < nf && d.err == nil; i++ {
		f := &o.Funcs[i]
		f.Name = d.str()
		f.Linkage = mir.Linkage(d.byte())
		f.NumBlocks = d.int()
		nb := d.count()
		if d.err != nil {
			return nil
		}
		if nb > 0 {
			f.BlockStarts = make([]int, nb)
			for j := 0; j < nb; j++ {
				f.BlockStarts[j] = d.int()
			}
		}
		nc := d.count()
		if d.err != nil {
			return nil
		}
		f.Code = make([]mir.Inst, nc)
		for j := 0; j < nc && d.err == nil; j++ {
			decodeInst(d, &f.Code[j])
		}
	}
	nd := d.count()
	if d.err != nil {
		return nil
	}
	if nd > 0 {
		o.Datas = make([]obj.DataSym, nd)
		for i := 0; i < nd && d.err == nil; i++ {
			ds := &o.Datas[i]
			ds.Name = d.str()
			ds.Linkage = mir.Linkage(d.byte())
			ds.Size = d.i64()
			ds.Init = d.bytesOrNil()
			ds.Const = d.bool()
		}
	}
	na := d.count()
	if d.err != nil {
		return nil
	}
	if na > 0 {
		o.Aliases = make([]obj.AliasSym, na)
		for i := 0; i < na && d.err == nil; i++ {
			a := &o.Aliases[i]
			a.Name = d.str()
			a.Target = d.str()
			a.Linkage = mir.Linkage(d.byte())
		}
	}
	ni := d.count()
	if d.err != nil {
		return nil
	}
	if ni > 0 {
		o.Imports = make([]string, ni)
		for i := 0; i < ni; i++ {
			o.Imports[i] = d.str()
		}
	}
	if d.err != nil {
		return nil
	}
	return o
}

// encodeEntry serializes an entry into a fresh payload buffer.
func encodeEntry(ent *Entry) []byte {
	e := &encoder{buf: make([]byte, 0, 256+ent.Object.CodeSize()*8)}
	e.byte(entryCodecVersion)
	e.u64(ent.Key)
	e.i64(int64(ent.Level))
	e.u64(uint64(len(ent.FuncHashes)))
	// Map order does not matter for decoding (it rebuilds a map), and the
	// payload is checksummed after encoding, so no sort is needed here.
	for name, h := range ent.FuncHashes {
		e.str(name)
		e.u64(h)
	}
	encodeObject(e, ent.Object)
	return e.buf
}

// decodeEntry parses a payload produced by encodeEntry. Any structural
// violation returns ErrCorrupt.
func decodeEntry(payload []byte) (*Entry, error) {
	d := &decoder{buf: payload}
	if v := d.byte(); d.err == nil && v != entryCodecVersion {
		return nil, fmt.Errorf("%w: entry codec version %d, want %d", ErrSchemaSkew, v, entryCodecVersion)
	}
	ent := &Entry{
		Key:   d.u64(),
		Level: d.int(),
	}
	nh := d.count()
	if d.err != nil {
		return nil, d.err
	}
	if nh > 0 {
		ent.FuncHashes = make(map[string]uint64, nh)
		for i := 0; i < nh && d.err == nil; i++ {
			name := d.str()
			ent.FuncHashes[name] = d.u64()
		}
	}
	ent.Object = decodeObject(d)
	if d.err != nil {
		return nil, d.err
	}
	if ent.Object == nil {
		return nil, fmt.Errorf("%w: entry without object", ErrCorrupt)
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return ent, nil
}

// encodeState serializes an engine state snapshot — same codec, same
// rationale as entries: the snapshot is decoded inside core.New on every
// warm restart, where gob's reflective setup cost was measurable.
func encodeState(st *EngineState) []byte {
	e := &encoder{buf: make([]byte, 0, 512)}
	e.byte(stateCodecVersion)
	e.u64(st.ModuleHash)
	e.str(st.Variant)
	e.i64(int64(st.OptLevel))
	e.i64(int64(st.VerifyTier))
	e.i64(int64(st.Fragments))
	e.u64(uint64(len(st.Hashes)))
	for id, h := range st.Hashes {
		e.i64(int64(id))
		e.u64(h)
	}
	e.u64(uint64(len(st.Quarantine)))
	for id, passes := range st.Quarantine {
		e.i64(int64(id))
		e.u64(uint64(len(passes)))
		for _, p := range passes {
			e.str(p)
		}
	}
	e.u64(uint64(len(st.Deferred)))
	for _, id := range st.Deferred {
		e.i64(int64(id))
	}
	e.bool(st.Survey != nil)
	if s := st.Survey; s != nil {
		e.u64(uint64(len(s.Cat)))
		for name, cat := range s.Cat {
			e.str(name)
			e.i64(int64(cat))
		}
		encodePairs(e, s.BondPairs)
		encodePairs(e, s.InnatePairs)
		e.u64(uint64(len(s.CopyUsers)))
		for name, users := range s.CopyUsers {
			e.str(name)
			e.u64(uint64(len(users)))
			for _, u := range users {
				e.str(u)
			}
		}
	}
	e.u64(uint64(len(st.VerifiedFuncs)))
	for name, h := range st.VerifiedFuncs {
		e.str(name)
		e.u64(h)
	}
	return e.buf
}

func encodePairs(e *encoder, pairs [][2]string) {
	e.u64(uint64(len(pairs)))
	for _, p := range pairs {
		e.str(p[0])
		e.str(p[1])
	}
}

// decodeState parses a payload produced by encodeState; any structural
// violation returns ErrCorrupt.
func decodeState(payload []byte) (*EngineState, error) {
	d := &decoder{buf: payload}
	if v := d.byte(); d.err == nil && v != stateCodecVersion {
		return nil, fmt.Errorf("%w: state codec version %d, want %d", ErrSchemaSkew, v, stateCodecVersion)
	}
	st := &EngineState{
		ModuleHash: d.u64(),
		Variant:    d.str(),
		OptLevel:   d.int(),
		VerifyTier: d.int(),
		Fragments:  d.int(),
	}
	if n := d.count(); d.err == nil && n > 0 {
		st.Hashes = make(map[int]uint64, n)
		for i := 0; i < n && d.err == nil; i++ {
			id := d.int()
			st.Hashes[id] = d.u64()
		}
	}
	if n := d.count(); d.err == nil && n > 0 {
		st.Quarantine = make(map[int][]string, n)
		for i := 0; i < n && d.err == nil; i++ {
			id := d.int()
			np := d.count()
			passes := make([]string, 0, np)
			for j := 0; j < np && d.err == nil; j++ {
				passes = append(passes, d.str())
			}
			st.Quarantine[id] = passes
		}
	}
	if n := d.count(); d.err == nil && n > 0 {
		st.Deferred = make([]int, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			st.Deferred = append(st.Deferred, d.int())
		}
	}
	if d.bool() && d.err == nil {
		s := &SurveyState{}
		if n := d.count(); d.err == nil {
			s.Cat = make(map[string]int, n)
			for i := 0; i < n && d.err == nil; i++ {
				name := d.str()
				s.Cat[name] = d.int()
			}
		}
		s.BondPairs = decodePairs(d)
		s.InnatePairs = decodePairs(d)
		if n := d.count(); d.err == nil && n > 0 {
			s.CopyUsers = make(map[string][]string, n)
			for i := 0; i < n && d.err == nil; i++ {
				name := d.str()
				nu := d.count()
				users := make([]string, 0, nu)
				for j := 0; j < nu && d.err == nil; j++ {
					users = append(users, d.str())
				}
				s.CopyUsers[name] = users
			}
		}
		st.Survey = s
	}
	if n := d.count(); d.err == nil && n > 0 {
		st.VerifiedFuncs = make(map[string]uint64, n)
		for i := 0; i < n && d.err == nil; i++ {
			name := d.str()
			st.VerifiedFuncs[name] = d.u64()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return st, nil
}

func decodePairs(d *decoder) [][2]string {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	pairs := make([][2]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		a := d.str()
		b := d.str()
		pairs = append(pairs, [2]string{a, b})
	}
	return pairs
}
