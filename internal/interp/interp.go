// Package interp is a reference interpreter for the IR. It serves as the
// differential-testing oracle: whatever the optimizer, code generator, and
// Odin's recompilation pipeline do, program output must match what this
// interpreter computes on the pristine module.
package interp

import (
	"fmt"

	"odin/internal/ir"
	"odin/internal/rt"
)

// Interp executes IR modules directly.
type Interp struct {
	M   *ir.Module
	Env *rt.Env

	globalAddr map[string]int64
	sp         int64
}

// New lays out the module's globals in the environment's memory and returns
// an interpreter ready to run.
func New(m *ir.Module, env *rt.Env) (*Interp, error) {
	ip := &Interp{M: m, Env: env, globalAddr: make(map[string]int64), sp: rt.StackTop}
	addr := int64(rt.GlobalBase)
	for _, g := range m.Globals {
		addr = align(addr, 8)
		ip.globalAddr[g.Name] = addr
		if !g.Decl && g.Init != nil {
			if err := env.WriteMem(addr, g.Init); err != nil {
				return nil, err
			}
		}
		sz := g.Elem.Size()
		if sz == 0 {
			sz = 8
		}
		addr += sz
	}
	// Functions get pseudo-addresses so taking their address is defined.
	for _, f := range m.Funcs {
		addr = align(addr, 8)
		ip.globalAddr[f.Name] = addr
		addr += 8
	}
	for _, a := range m.Aliases {
		tgt := m.Lookup(a.Target)
		if tgt == nil {
			return nil, fmt.Errorf("interp: alias %q to missing symbol %q", a.Name, a.Target)
		}
		ip.globalAddr[a.Name] = ip.globalAddr[a.Target]
	}
	return ip, nil
}

func align(a, to int64) int64 { return (a + to - 1) &^ (to - 1) }

// Run executes the named function with the given arguments and returns its
// result value (0 for void functions).
func (ip *Interp) Run(fnName string, args ...int64) (int64, error) {
	return ip.call(fnName, args, 0)
}

const maxCallDepth = 400

// resolveCallee follows aliases to the defined function or builtin name.
func (ip *Interp) resolveCallee(name string) (string, *ir.Func) {
	for i := 0; i < 16; i++ {
		sym := ip.M.Lookup(name)
		switch s := sym.(type) {
		case *ir.Alias:
			name = s.Target
			continue
		case *ir.Func:
			if !s.IsDecl() {
				return name, s
			}
			return name, nil
		}
		return name, nil
	}
	return name, nil
}

func (ip *Interp) call(fnName string, args []int64, depth int) (int64, error) {
	if depth > maxCallDepth {
		return 0, rt.Trapf("call depth exceeded at @%s", fnName)
	}
	name, f := ip.resolveCallee(fnName)
	if f == nil {
		bi, ok := ip.Env.Builtins[name]
		if !ok {
			return 0, rt.Trapf("call to undefined function @%s", name)
		}
		return bi(ip.Env, args)
	}
	if len(args) != len(f.Params) {
		return 0, rt.Trapf("@%s called with %d args, want %d", name, len(args), len(f.Params))
	}

	frame := make(map[ir.Value]int64, 32)
	for i, p := range f.Params {
		frame[p] = args[i]
	}
	savedSP := ip.sp
	defer func() { ip.sp = savedSP }()

	var prev *ir.Block
	cur := f.Entry()
	for {
		// Evaluate all phis atomically against the incoming edge.
		if prev != nil {
			phis := cur.Phis()
			if len(phis) > 0 {
				vals := make([]int64, len(phis))
				for i, phi := range phis {
					found := false
					for j, inc := range phi.Incoming {
						if inc == prev {
							v, err := ip.eval(frame, phi.Operands[j])
							if err != nil {
								return 0, err
							}
							vals[i] = v
							found = true
							break
						}
					}
					if !found {
						return 0, rt.Trapf("phi in %s has no incoming for pred %s", cur.Name, prev.Name)
					}
				}
				for i, phi := range phis {
					frame[phi] = vals[i]
				}
			}
		}

		for idx := 0; idx < len(cur.Instrs); idx++ {
			in := cur.Instrs[idx]
			if in.Op == ir.OpPhi {
				continue
			}
			if err := ip.Env.Step(); err != nil {
				return 0, err
			}
			switch {
			case in.Op.IsBinOp():
				a, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				b, err := ip.eval(frame, in.Operands[1])
				if err != nil {
					return 0, err
				}
				st := in.Typ.(ir.ScalarType)
				v, err := EvalBinOp(in.Op, a, b, st)
				if err != nil {
					return 0, err
				}
				frame[in] = v
			case in.Op == ir.OpICmp:
				a, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				b, err := ip.eval(frame, in.Operands[1])
				if err != nil {
					return 0, err
				}
				st, _ := in.Operands[0].Type().(ir.ScalarType)
				if st == 0 && in.Operands[0].Type().Equal(ir.Ptr) {
					st = ir.I64
				}
				if ir.EvalPred(in.Pred, a, b, st) {
					frame[in] = 1
				} else {
					frame[in] = 0
				}
			case in.Op == ir.OpSelect:
				c, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				var v int64
				if c != 0 {
					v, err = ip.eval(frame, in.Operands[1])
				} else {
					v, err = ip.eval(frame, in.Operands[2])
				}
				if err != nil {
					return 0, err
				}
				frame[in] = v
			case in.Op == ir.OpZExt:
				a, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				from, _ := in.Operands[0].Type().(ir.ScalarType)
				frame[in] = int64(ir.ZeroExtend(a, from))
			case in.Op == ir.OpSExt:
				a, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				frame[in] = a // values already sign-normalized
			case in.Op == ir.OpTrunc:
				a, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				frame[in] = ir.TruncToWidth(a, in.Typ.(ir.ScalarType))
			case in.Op == ir.OpAlloca:
				size := in.ElemType.Size() * in.AllocaCount
				ip.sp = (ip.sp - size) &^ 7
				if ip.sp < rt.InputBase+rt.InputMax {
					return 0, rt.Trapf("stack overflow in @%s", name)
				}
				frame[in] = ip.sp
			case in.Op == ir.OpLoad:
				p, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				v, err := ip.Env.Load(p, in.ElemType.Size())
				if err != nil {
					return 0, err
				}
				st := in.Typ.(ir.ScalarType)
				if st == ir.I1 {
					v &= 1
				}
				frame[in] = v
			case in.Op == ir.OpStore:
				v, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				p, err := ip.eval(frame, in.Operands[1])
				if err != nil {
					return 0, err
				}
				if err := ip.Env.Store(p, in.ElemType.Size(), v); err != nil {
					return 0, err
				}
			case in.Op == ir.OpGEP:
				p, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				i, err := ip.eval(frame, in.Operands[1])
				if err != nil {
					return 0, err
				}
				frame[in] = p + i*in.Scale
			case in.Op == ir.OpCall:
				cargs := make([]int64, len(in.Operands))
				for i, a := range in.Operands {
					v, err := ip.eval(frame, a)
					if err != nil {
						return 0, err
					}
					cargs[i] = v
				}
				r, err := ip.call(in.Callee, cargs, depth+1)
				if err != nil {
					return 0, err
				}
				if in.HasResult() {
					frame[in] = r
				}
			case in.Op == ir.OpRet:
				if len(in.Operands) == 0 {
					return 0, nil
				}
				return ip.eval(frame, in.Operands[0])
			case in.Op == ir.OpBr:
				prev, cur = cur, in.Targets[0]
				goto nextBlock
			case in.Op == ir.OpCondBr:
				c, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				if c != 0 {
					prev, cur = cur, in.Targets[0]
				} else {
					prev, cur = cur, in.Targets[1]
				}
				goto nextBlock
			case in.Op == ir.OpSwitch:
				v, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				tgt := in.Targets[len(in.Cases)]
				for i, cv := range in.Cases {
					if cv == v {
						tgt = in.Targets[i]
						break
					}
				}
				prev, cur = cur, tgt
				goto nextBlock
			case in.Op == ir.OpCounterInc:
				p, err := ip.eval(frame, in.Operands[0])
				if err != nil {
					return 0, err
				}
				v, err := ip.Env.Load(p+in.Scale, 1)
				if err != nil {
					return 0, err
				}
				if err := ip.Env.Store(p+in.Scale, 1, v+1); err != nil {
					return 0, err
				}
			case in.Op == ir.OpUnreachable:
				return 0, rt.Trapf("unreachable executed in @%s", name)
			default:
				return 0, rt.Trapf("bad opcode %s", in.Op)
			}
		}
		return 0, rt.Trapf("block %s in @%s fell through", cur.Name, name)
	nextBlock:
	}
}

func (ip *Interp) eval(frame map[ir.Value]int64, v ir.Value) (int64, error) {
	switch x := v.(type) {
	case *ir.ConstInt:
		return x.Val, nil
	case *ir.Param, *ir.Instr:
		val, ok := frame[v]
		if !ok {
			return 0, rt.Trapf("use of undefined value %s", v.Ref())
		}
		return val, nil
	case ir.Global:
		a, ok := ip.globalAddr[x.GlobalName()]
		if !ok {
			return 0, rt.Trapf("unknown global @%s", x.GlobalName())
		}
		return a, nil
	}
	return 0, rt.Trapf("bad operand kind %T", v)
}

// EvalBinOp computes a binary operation on width-normalized values,
// trapping on division by zero. Shift counts are masked to the type width
// like hardware does.
func EvalBinOp(op ir.Op, a, b int64, t ir.ScalarType) (int64, error) {
	ua, ub := ir.ZeroExtend(a, t), ir.ZeroExtend(b, t)
	mask := int64(t.Bits() - 1)
	if t == ir.I1 {
		mask = 0
	}
	var r int64
	switch op {
	case ir.OpAdd:
		r = a + b
	case ir.OpSub:
		r = a - b
	case ir.OpMul:
		r = a * b
	case ir.OpSDiv:
		if b == 0 {
			return 0, rt.Trapf("sdiv by zero")
		}
		if a == -1<<63 && b == -1 {
			r = a
		} else {
			r = a / b
		}
	case ir.OpUDiv:
		if ub == 0 {
			return 0, rt.Trapf("udiv by zero")
		}
		r = int64(ua / ub)
	case ir.OpSRem:
		if b == 0 {
			return 0, rt.Trapf("srem by zero")
		}
		if a == -1<<63 && b == -1 {
			r = 0
		} else {
			r = a % b
		}
	case ir.OpURem:
		if ub == 0 {
			return 0, rt.Trapf("urem by zero")
		}
		r = int64(ua % ub)
	case ir.OpAnd:
		r = a & b
	case ir.OpOr:
		r = a | b
	case ir.OpXor:
		r = a ^ b
	case ir.OpShl:
		r = a << (uint64(b) & uint64(mask))
	case ir.OpLShr:
		r = int64(ua >> (uint64(b) & uint64(mask)))
	case ir.OpAShr:
		r = a >> (uint64(b) & uint64(mask))
	default:
		return 0, rt.Trapf("bad binop %s", op)
	}
	return ir.TruncToWidth(r, t), nil
}

// RunProgram is a convenience that creates an env, writes the input, runs
// @fuzz_target(ptr, len) or @main(), and returns (result, output, error).
func RunProgram(m *ir.Module, input []byte) (int64, string, error) {
	env := rt.NewEnv()
	ip, err := New(m, env)
	if err != nil {
		return 0, "", err
	}
	var ret int64
	if m.LookupFunc("fuzz_target") != nil {
		p, n, err := env.WriteInput(input)
		if err != nil {
			return 0, "", err
		}
		ret, err = ip.Run("fuzz_target", p, n)
		if err != nil {
			return ret, env.Out.String(), err
		}
	} else {
		ret, err = ip.Run("main")
		if err != nil {
			return ret, env.Out.String(), err
		}
	}
	return ret, env.Out.String(), nil
}
