package rt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	e := NewEnv()
	prop := func(addr uint32, v int64, szSel uint8) bool {
		sizes := []int64{1, 2, 4, 8}
		sz := sizes[int(szSel)%4]
		a := NullGuard + int64(addr)%(MemSize-NullGuard-8)
		if err := e.Store(a, sz, v); err != nil {
			return false
		}
		got, err := e.Load(a, sz)
		if err != nil {
			return false
		}
		// Loads sign-extend from the stored width.
		var want int64
		switch sz {
		case 1:
			want = int64(int8(v))
		case 2:
			want = int64(int16(v))
		case 4:
			want = int64(int32(v))
		default:
			want = v
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsChecks(t *testing.T) {
	e := NewEnv()
	cases := []struct {
		addr, size int64
	}{
		{0, 8},             // null page
		{NullGuard - 1, 1}, // below guard
		{MemSize - 4, 8},   // straddles the end
		{MemSize + 100, 1}, // past the end
	}
	for _, c := range cases {
		if _, err := e.Load(c.addr, c.size); err == nil {
			t.Errorf("load at %#x size %d accepted", c.addr, c.size)
		}
		if err := e.Store(c.addr, c.size, 1); err == nil {
			t.Errorf("store at %#x size %d accepted", c.addr, c.size)
		}
	}
	if _, err := e.Load(GlobalBase, 3); err == nil {
		t.Error("bad load size accepted")
	}
}

func TestCString(t *testing.T) {
	e := NewEnv()
	copy(e.mem[GlobalBase:], "hello\x00")
	s, err := e.CString(GlobalBase)
	if err != nil || s != "hello" {
		t.Fatalf("got %q, %v", s, err)
	}
	if _, err := e.CString(0); err == nil {
		t.Fatal("null cstring accepted")
	}
	// Unterminated string at the very end of memory.
	for i := MemSize - 16; i < MemSize; i++ {
		e.mem[i] = 'x'
	}
	if _, err := e.CString(MemSize - 16); err == nil {
		t.Fatal("unterminated cstring accepted")
	}
}

func TestWriteInput(t *testing.T) {
	e := NewEnv()
	p, n, err := e.WriteInput([]byte("abc"))
	if err != nil || p != InputBase || n != 3 {
		t.Fatalf("p=%#x n=%d err=%v", p, n, err)
	}
	if string(e.mem[InputBase:InputBase+3]) != "abc" {
		t.Fatal("input not copied")
	}
	if _, _, err := e.WriteInput(make([]byte, InputMax+1)); err == nil {
		t.Fatal("oversized input accepted")
	}
}

func TestStepLimit(t *testing.T) {
	e := NewEnv()
	e.StepLimit = 3
	for i := 0; i < 3; i++ {
		if err := e.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := e.Step(); err == nil {
		t.Fatal("limit not enforced")
	}
}

func TestStdlibBuiltins(t *testing.T) {
	e := NewEnv()
	copy(e.mem[GlobalBase:], "hi\x00")

	if _, err := e.Builtins["print_i64"](e, []int64{-42}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Builtins["write_byte"](e, []int64{65}); err != nil {
		t.Fatal(err)
	}
	n, err := e.Builtins["puts"](e, []int64{GlobalBase})
	if err != nil || n != 3 {
		t.Fatalf("puts: %d, %v", n, err)
	}
	n, err = e.Builtins["printf"](e, []int64{GlobalBase})
	if err != nil || n != 2 {
		t.Fatalf("printf: %d, %v", n, err)
	}
	if got := e.Out.String(); got != "-42\nAhi\nhi" {
		t.Fatalf("output = %q", got)
	}
	if _, err := e.Builtins["abort"](e, nil); err == nil || !strings.Contains(err.Error(), "abort") {
		t.Fatalf("abort: %v", err)
	}

	// memset/memcpy/memcmp.
	p := int64(GlobalBase + 64)
	if _, err := e.Builtins["memset"](e, []int64{p, 7, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Builtins["memcpy"](e, []int64{p + 8, p, 4}); err != nil {
		t.Fatal(err)
	}
	r, err := e.Builtins["memcmp"](e, []int64{p, p + 8, 4})
	if err != nil || r != 0 {
		t.Fatalf("memcmp equal: %d, %v", r, err)
	}
	e.mem[p+8] = 9
	r, _ = e.Builtins["memcmp"](e, []int64{p, p + 8, 4})
	if r >= 0 {
		t.Fatalf("memcmp ordering: %d", r)
	}
	if _, err := e.Builtins["memcpy"](e, []int64{0, p, 4}); err == nil {
		t.Fatal("memcpy to null accepted")
	}
}

func TestTrapError(t *testing.T) {
	err := Trapf("bad %s at %d", "thing", 7)
	if err.Error() != "trap: bad thing at 7" {
		t.Fatalf("got %q", err.Error())
	}
}

// dirtyPages lists the write set.
func dirtyPages(e *Env) []int {
	var out []int
	for p := 0; p < numPages; p++ {
		if e.dirty[p>>6]&(1<<(p&63)) != 0 {
			out = append(out, p)
		}
	}
	return out
}

func TestWriteSetMarksEveryWrite(t *testing.T) {
	pageOf := func(addr int64) int { return int(addr >> pageShift) }
	cases := []struct {
		name  string
		write func(e *Env) error
		want  []int
	}{
		{"store inside a page", func(e *Env) error { return e.Store(GlobalBase+8, 8, 1) }, []int{pageOf(GlobalBase)}},
		{"2-byte store across a boundary", func(e *Env) error { return e.Store(GlobalBase+PageSize-1, 2, 1) },
			[]int{pageOf(GlobalBase), pageOf(GlobalBase) + 1}},
		{"8-byte store across a boundary", func(e *Env) error { return e.Store(StackTop-PageSize-3, 8, 1) },
			[]int{pageOf(StackTop) - 2, pageOf(StackTop) - 1}},
		{"input", func(e *Env) error { _, _, err := e.WriteInput(make([]byte, PageSize+1)); return err },
			[]int{pageOf(InputBase), pageOf(InputBase) + 1}},
		{"empty input", func(e *Env) error { _, _, err := e.WriteInput(nil); return err }, nil},
		{"memset over three pages", func(e *Env) error {
			_, err := e.Builtins["memset"](e, []int64{GlobalBase + PageSize - 1, 7, PageSize + 2})
			return err
		}, []int{pageOf(GlobalBase), pageOf(GlobalBase) + 1, pageOf(GlobalBase) + 2}},
		{"memset of nothing at the end of memory", func(e *Env) error {
			_, err := e.Builtins["memset"](e, []int64{MemSize, 7, 0})
			return err
		}, nil},
		{"memcpy marks the destination only", func(e *Env) error {
			_, err := e.Builtins["memcpy"](e, []int64{InputBase, GlobalBase, 16})
			return err
		}, []int{pageOf(InputBase)}},
		{"bump", func(e *Env) error { e.Bump(GlobalBase + 3*PageSize); return nil }, []int{pageOf(GlobalBase) + 3}},
		{"bump in the null guard", func(e *Env) error { e.Bump(1); return nil }, []int{0}},
		{"bump outside memory", func(e *Env) error { e.Bump(MemSize); e.Bump(0); e.Bump(-1); return nil }, nil},
		{"host write", func(e *Env) error { return e.WriteMem(GlobalBase+PageSize-2, []byte("abcd")) },
			[]int{pageOf(GlobalBase), pageOf(GlobalBase) + 1}},
	}
	for _, c := range cases {
		e := NewEnv()
		if err := c.write(e); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := dirtyPages(e); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: write set %v, want %v", c.name, got, c.want)
		}
		e.ResetMem()
		if got := dirtyPages(e); got != nil {
			t.Errorf("%s: write set %v after ResetMem", c.name, got)
		}
		for i, b := range e.mem {
			if b != 0 {
				t.Errorf("%s: byte %#x is %#x after ResetMem of an empty image", c.name, i, b)
				break
			}
		}
	}
}

func TestRejectedWritesLeaveMemoryAlone(t *testing.T) {
	e := NewEnv()
	for _, c := range [][2]int64{
		{0, 8}, {NullGuard - 1, 2}, {MemSize - 7, 8}, {MemSize, 1}, {-8, 8},
		{0x7ffffffffffffff9, 8}, {GlobalBase, -1},
	} {
		if err := e.Fill(c[0], c[1], 1); err == nil {
			t.Errorf("fill of %d bytes at %#x accepted", c[1], c[0])
		}
		if c[1] == 8 {
			if err := e.Store(c[0], 8, 1); err == nil {
				t.Errorf("store at %#x accepted", c[0])
			}
		}
	}
	if got := dirtyPages(e); got != nil {
		t.Errorf("rejected writes left a write set: %v", got)
	}
}

func TestLoadImageAndResetMem(t *testing.T) {
	image := func(n int, salt byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i) | salt
		}
		return b
	}
	want := func(e *Env, data []byte) {
		t.Helper()
		exp := make([]byte, MemSize)
		copy(exp[GlobalBase:], data)
		if !bytes.Equal(e.mem, exp) {
			t.Fatalf("memory is not zeros plus the %d-byte image", len(data))
		}
	}
	e := NewEnv()
	big, small := image(3*PageSize+17, 0x80), image(PageSize/2, 0x40)
	e.LoadImage(big)
	want(e, big)
	// Writes inside the image, past its end in its last page, and elsewhere.
	for _, addr := range []int64{GlobalBase, GlobalBase + 2*PageSize - 4, GlobalBase + int64(len(big)) + 5, InputBase, StackTop - 8} {
		if err := e.Store(addr, 8, -1); err != nil {
			t.Fatal(err)
		}
	}
	e.ResetMem()
	want(e, big)
	// A shorter image: the longer one's tail must go.
	if err := e.Store(GlobalBase+3*PageSize, 1, 9); err != nil {
		t.Fatal(err)
	}
	e.LoadImage(small)
	want(e, small)
	e.LoadImage(big)
	want(e, big)
	e.LoadImage(nil)
	want(e, nil)
}

func TestBumpSaturates(t *testing.T) {
	e := NewEnv()
	for i := 0; i < 300; i++ {
		e.Bump(GlobalBase)
	}
	var b [1]byte
	if err := e.ReadMem(b[:], GlobalBase); err != nil || b[0] != 0xFF {
		t.Fatalf("counter = %#x, %v; want 0xff", b[0], err)
	}
	if err := e.ReadMem(make([]byte, 2), MemSize-1); err == nil {
		t.Fatal("read past the end of memory accepted")
	}
}
