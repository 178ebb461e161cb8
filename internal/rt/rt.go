// Package rt provides the runtime environment shared by the IR interpreter
// and the machine-code execution engine: a flat byte-addressable memory, an
// output stream, and a registry of builtin (external) functions such as the
// libc stubs and the instrumentation hooks that fuzzing tools install.
package rt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"odin/internal/telemetry"
)

// Standard address-space layout. Both execution engines place program data
// in the same regions so generated programs behave identically, provided
// they never print raw pointers.
const (
	// NullGuard: addresses below this trap, catching null dereferences.
	NullGuard = 0x1000
	// GlobalBase is where global variables start.
	GlobalBase = 0x10000
	// InputBase is where the fuzz input buffer is copied.
	InputBase = 0x400000
	// InputMax is the maximum input size.
	InputMax = 0x10000
	// StackTop is the initial stack pointer (stack grows down).
	StackTop = 0x800000
	// MemSize is the total memory size.
	MemSize = 0x800000
)

// Memory is tracked in pages: the write set records which pages may differ
// from the loaded image, so restoring the image costs what the execution
// wrote and not the size of the address space. 4 KiB keeps the set at 2048
// bits (one scan of 32 words) while a typical execution — one input page, a
// stack page or two, a few pages of globals — restores under 64 KiB.
const (
	pageShift = 12
	// PageSize is the granularity of the write set.
	PageSize = 1 << pageShift
	numPages = MemSize / PageSize
)

// TrapError reports an execution fault (bad memory access, abort,
// unreachable, division by zero).
type TrapError struct {
	Reason string
}

func (e *TrapError) Error() string { return "trap: " + e.Reason }

// Trapf constructs a TrapError.
func Trapf(format string, args ...interface{}) *TrapError {
	return &TrapError{Reason: fmt.Sprintf(format, args...)}
}

// Builtin is an external function implemented by the host. Arguments and
// result are 64-bit machine words.
type Builtin func(e *Env, args []int64) (int64, error)

// Env is one execution's mutable state.
type Env struct {
	// mem is written only through touch-ing methods of this package, so the
	// write set below is complete; other packages read it with ReadMem.
	mem []byte
	// dirty is the write set: bit p is set when page p may differ from the
	// loaded image (zeros, with image at GlobalBase).
	dirty [numPages / 64]uint64
	image []byte

	Out      bytes.Buffer
	Builtins map[string]Builtin

	// Steps counts abstract work units: IR instructions for the
	// interpreter, machine instructions for the VM (in addition to the
	// VM's cycle accounting).
	Steps int64
	// StepLimit aborts runaway executions when positive.
	StepLimit int64

	// Hits, when non-nil, receives per-probe-site hit counts via CountHit.
	// Instrumentation hook builtins call CountHit on every firing, so the
	// vector must be allocation- and lock-free; a nil Hits makes CountHit a
	// single nil check.
	Hits *telemetry.HitVec
}

// CountHit records one firing of probe site id on the attached hit vector;
// a no-op when no vector is attached.
func (e *Env) CountHit(id int64) { e.Hits.Hit(id) }

// NewEnv allocates a fresh environment with the standard builtins.
func NewEnv() *Env {
	e := &Env{
		mem:       make([]byte, MemSize),
		Builtins:  make(map[string]Builtin),
		StepLimit: 200_000_000,
	}
	RegisterStdlib(e)
	return e
}

// Step consumes one work unit, returning a trap when the limit is exceeded.
func (e *Env) Step() error {
	e.Steps++
	if e.StepLimit > 0 && e.Steps > e.StepLimit {
		return Trapf("step limit %d exceeded", e.StepLimit)
	}
	return nil
}

// touch adds the pages of [addr, addr+n) to the write set. It is the one
// marking path: every write to mem calls it first, with a range that is in
// bounds and not empty. An access that straddles a page boundary marks both
// pages.
func (e *Env) touch(addr, n int64) {
	first, last := addr>>pageShift, (addr+n-1)>>pageShift
	e.dirty[first>>6] |= 1 << (first & 63)
	for p := first + 1; p <= last; p++ {
		e.dirty[p>>6] |= 1 << (p & 63)
	}
}

// LoadImage makes data, placed at GlobalBase, the state ResetMem restores
// and restores it. The ranges of the previous image and of the new one are
// both rewritten, so an Env can move from one program image to the next
// without being reallocated. data is read on every ResetMem and must not
// change while loaded.
func (e *Env) LoadImage(data []byte) {
	if len(data) > MemSize-GlobalBase {
		data = data[:MemSize-GlobalBase]
	}
	if n := max(len(e.image), len(data)); n > 0 {
		e.touch(GlobalBase, int64(n))
	}
	e.image = data
	e.ResetMem()
}

// ResetMem restores every page in the write set to the loaded image — zero
// it, then re-copy the part of the image that overlaps it — and empties the
// set. Afterwards memory is byte for byte what a fresh Env given the same
// LoadImage holds.
func (e *Env) ResetMem() {
	for w, set := range e.dirty {
		for ; set != 0; set &= set - 1 {
			lo := (w<<6 + bits.TrailingZeros64(set)) << pageShift
			page := e.mem[lo : lo+PageSize]
			n := 0
			// GlobalBase is page-aligned: a page overlaps the image from
			// its first byte or not at all.
			if off := lo - GlobalBase; off >= 0 && off < len(e.image) {
				n = copy(page, e.image[off:])
			}
			clear(page[n:])
		}
		e.dirty[w] = 0
	}
}

// CheckAddr validates an n-byte access at addr.
func (e *Env) CheckAddr(addr int64, n int64) error {
	if n < 0 || addr < NullGuard || addr > int64(len(e.mem))-n {
		return Trapf("out-of-bounds %d-byte access at %#x", n, addr)
	}
	return nil
}

// Load reads a size-byte little-endian value at addr, sign-extended.
func (e *Env) Load(addr int64, size int64) (int64, error) {
	if addr >= NullGuard && addr <= int64(len(e.mem))-size {
		switch size {
		case 8:
			return int64(binary.LittleEndian.Uint64(e.mem[addr:])), nil
		case 4:
			return int64(int32(binary.LittleEndian.Uint32(e.mem[addr:]))), nil
		case 1:
			return int64(int8(e.mem[addr])), nil
		case 2:
			return int64(int16(binary.LittleEndian.Uint16(e.mem[addr:]))), nil
		}
	}
	return 0, e.accessTrap("load", addr, size)
}

// Store writes a size-byte little-endian value at addr.
func (e *Env) Store(addr int64, size int64, v int64) error {
	if addr < NullGuard || addr > int64(len(e.mem))-size || size != 8 && size != 4 && size != 1 && size != 2 {
		return e.accessTrap("store", addr, size)
	}
	e.touch(addr, size)
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(e.mem[addr:], uint64(v))
	case 4:
		binary.LittleEndian.PutUint32(e.mem[addr:], uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(e.mem[addr:], uint16(v))
	default:
		e.mem[addr] = byte(v)
	}
	return nil
}

// accessTrap builds, out of line, the trap of a Load or Store that is out of
// bounds or not of 1, 2, 4 or 8 bytes: an in-bounds access calls only touch.
func (e *Env) accessTrap(op string, addr, size int64) error {
	if err := e.CheckAddr(addr, size); err != nil {
		return err
	}
	return Trapf("bad %s size %d", op, size)
}

// ReadMem copies len(dst) bytes of memory at addr into dst. It is the host's
// view (coverage tables, tests): any address inside memory is readable.
func (e *Env) ReadMem(dst []byte, addr int64) error {
	if addr < 0 || addr > int64(len(e.mem)-len(dst)) {
		return fmt.Errorf("rt: read of %d bytes at %#x outside memory", len(dst), addr)
	}
	copy(dst, e.mem[addr:])
	return nil
}

// WriteMem copies src into memory at addr: the host's store (global
// initialisers, the fuzz input).
func (e *Env) WriteMem(addr int64, src []byte) error {
	if err := e.CheckAddr(addr, int64(len(src))); err != nil {
		return err
	}
	if len(src) > 0 {
		e.touch(addr, int64(len(src)))
		copy(e.mem[addr:], src)
	}
	return nil
}

// Fill sets the n bytes at addr to c.
func (e *Env) Fill(addr, n int64, c byte) error {
	if err := e.CheckAddr(addr, n); err != nil {
		return err
	}
	if n > 0 {
		e.touch(addr, n)
		b := e.mem[addr : addr+n]
		for i := range b {
			b[i] = c
		}
	}
	return nil
}

// Bump increments the byte counter at addr, saturating at 0xFF: the effect
// of a mir.Probe, which binary-level instrumenters place without bounds
// checks of their own. An address outside memory is ignored.
func (e *Env) Bump(addr int64) {
	if addr > 0 && addr < int64(len(e.mem)) && e.mem[addr] != 0xFF {
		e.touch(addr, 1)
		e.mem[addr]++
	}
}

// CString reads a NUL-terminated string at addr.
func (e *Env) CString(addr int64) (string, error) {
	if err := e.CheckAddr(addr, 1); err != nil {
		return "", err
	}
	end := addr
	for end < int64(len(e.mem)) && e.mem[end] != 0 {
		end++
	}
	if end == int64(len(e.mem)) {
		return "", Trapf("unterminated string at %#x", addr)
	}
	return string(e.mem[addr:end]), nil
}

// WriteInput copies the fuzz input into the input region and returns its
// address and length.
func (e *Env) WriteInput(data []byte) (ptr, length int64, err error) {
	if len(data) > InputMax {
		return 0, 0, Trapf("input too large: %d", len(data))
	}
	if err := e.WriteMem(InputBase, data); err != nil {
		return 0, 0, err
	}
	return InputBase, int64(len(data)), nil
}

// RegisterStdlib installs the libc-stub builtins every program may call.
func RegisterStdlib(e *Env) {
	e.Builtins["print_i64"] = func(e *Env, args []int64) (int64, error) {
		fmt.Fprintf(&e.Out, "%d\n", args[0])
		return 0, nil
	}
	e.Builtins["write_byte"] = func(e *Env, args []int64) (int64, error) {
		e.Out.WriteByte(byte(args[0]))
		return 0, nil
	}
	e.Builtins["puts"] = func(e *Env, args []int64) (int64, error) {
		s, err := e.CString(args[0])
		if err != nil {
			return 0, err
		}
		e.Out.WriteString(s)
		e.Out.WriteByte('\n')
		return int64(len(s) + 1), nil
	}
	// printf is a fputs-style stub: it writes the format string verbatim.
	// This is all the instruction-combining printf("x\n") -> puts("x")
	// rewrite needs to be observable and semantics-preserving.
	e.Builtins["printf"] = func(e *Env, args []int64) (int64, error) {
		s, err := e.CString(args[0])
		if err != nil {
			return 0, err
		}
		e.Out.WriteString(s)
		return int64(len(s)), nil
	}
	e.Builtins["abort"] = func(e *Env, args []int64) (int64, error) {
		return 0, Trapf("abort() called")
	}
	e.Builtins["memcmp"] = func(e *Env, args []int64) (int64, error) {
		a, b, n := args[0], args[1], args[2]
		if err := e.CheckAddr(a, n); err != nil {
			return 0, err
		}
		if err := e.CheckAddr(b, n); err != nil {
			return 0, err
		}
		return int64(bytes.Compare(e.mem[a:a+n], e.mem[b:b+n])), nil
	}
	e.Builtins["memset"] = func(e *Env, args []int64) (int64, error) {
		p, c, n := args[0], args[1], args[2]
		if err := e.Fill(p, n, byte(c)); err != nil {
			return 0, err
		}
		return p, nil
	}
	e.Builtins["memcpy"] = func(e *Env, args []int64) (int64, error) {
		d, s, n := args[0], args[1], args[2]
		if err := e.CheckAddr(d, n); err != nil {
			return 0, err
		}
		if err := e.CheckAddr(s, n); err != nil {
			return 0, err
		}
		if n > 0 {
			e.touch(d, n)
			copy(e.mem[d:d+n], e.mem[s:s+n])
		}
		return d, nil
	}
}

// StdlibSigs describes the libc-stub signatures so program builders can
// declare them: name -> (param count, has result). All params/results are
// 64-bit words at the ABI level.
var StdlibSigs = map[string]struct {
	Params    int
	HasResult bool
}{
	"print_i64":  {1, false},
	"write_byte": {1, false},
	"puts":       {1, true},
	"printf":     {1, true},
	"abort":      {0, false},
	"memcmp":     {3, true},
	"memset":     {3, true},
	"memcpy":     {3, true},
}
