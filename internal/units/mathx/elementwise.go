package mathx

import (
	"fmt"
	"math"

	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// Element-wise unary units over the Vec family. Each preserves the
// input's concrete type (a scaled SampleSet keeps its sampling rate) and
// works in place: it takes its input through types.Mutable, so an
// unsealed input it owns becomes its output and only a sealed one is
// copied.
const (
	NameAbs        = "triana.mathx.Abs"
	NameSquare     = "triana.mathx.Square"
	NameSqrt       = "triana.mathx.Sqrt"
	NameLog        = "triana.mathx.Log"
	NameExp        = "triana.mathx.Exp"
	NameNegate     = "triana.mathx.Negate"
	NameClip       = "triana.mathx.Clip"
	NameNormalize  = "triana.mathx.Normalize"
	NameCumSum     = "triana.mathx.CumSum"
	NameDiff       = "triana.mathx.Diff"
	NameReverse    = "triana.mathx.Reverse"
	NameRMSReduce  = "triana.mathx.RMS"
	NameMinReduce  = "triana.mathx.Min"
	NameMaxReduce  = "triana.mathx.Max"
	NameZeroCross  = "triana.mathx.ZeroCross"
	NameSortValues = "triana.mathx.Sort"
)

// elementwise implements a stateless unary map over the numeric payload.
type elementwise struct {
	name string
	// apply transforms the owned payload in place; u carries Init-time
	// parameters for units that need them.
	apply func(u *elementwise, xs []float64)
	// lo/hi are Clip's bounds.
	lo, hi float64
}

// Name implements Unit.
func (e *elementwise) Name() string { return e.name }

// Init implements Unit.
func (e *elementwise) Init(p units.Params) error {
	if e.name != NameClip {
		return nil
	}
	var err error
	if e.lo, err = p.Float("lo", -1); err != nil {
		return err
	}
	if e.hi, err = p.Float("hi", 1); err != nil {
		return err
	}
	if e.hi < e.lo {
		return fmt.Errorf("mathx: Clip hi %g < lo %g", e.hi, e.lo)
	}
	return nil
}

// Process implements Unit.
func (e *elementwise) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(e.name, 1, in); err != nil {
		return nil, err
	}
	if _, err := vecInput(e.name, in[0]); err != nil {
		return nil, err
	}
	out := types.Mutable(in[0])
	xs, _ := types.Floats(out)
	e.apply(e, xs)
	return []types.Data{out}, nil
}

// reduction implements a Vec -> Const fold.
type reduction struct {
	name string
	fold func(xs []float64) float64
}

// Name implements Unit.
func (r *reduction) Name() string { return r.name }

// Init implements Unit.
func (r *reduction) Init(units.Params) error { return nil }

// Process implements Unit.
func (r *reduction) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(r.name, 1, in); err != nil {
		return nil, err
	}
	xs, err := vecInput(r.name, in[0])
	if err != nil {
		return nil, err
	}
	return []types.Data{&types.Const{Value: r.fold(xs)}}, nil
}

func init() {
	regEW := func(name, desc string, apply func(u *elementwise, xs []float64), params ...units.ParamSpec) {
		units.Register(units.Meta{
			Name: name, Description: desc,
			In: 1, Out: 1,
			InTypes:  [][]string{{types.NameVec}},
			OutTypes: []string{types.NameVec},
			Params:   params,
		}, func() units.Unit { return &elementwise{name: name, apply: apply} })
	}
	regEW(NameAbs, "Element-wise absolute value.", func(_ *elementwise, xs []float64) {
		for i := range xs {
			xs[i] = math.Abs(xs[i])
		}
	})
	regEW(NameSquare, "Element-wise square.", func(_ *elementwise, xs []float64) {
		for i := range xs {
			xs[i] *= xs[i]
		}
	})
	regEW(NameSqrt, "Element-wise square root (negative inputs yield NaN, as in Java's Math.sqrt).",
		func(_ *elementwise, xs []float64) {
			for i := range xs {
				xs[i] = math.Sqrt(xs[i])
			}
		})
	regEW(NameLog, "Element-wise natural log of (1+|x|), sign-preserving — the display compressor used by graphing tools.",
		func(_ *elementwise, xs []float64) {
			for i := range xs {
				xs[i] = math.Copysign(math.Log1p(math.Abs(xs[i])), xs[i])
			}
		})
	regEW(NameExp, "Element-wise exponential.", func(_ *elementwise, xs []float64) {
		for i := range xs {
			xs[i] = math.Exp(xs[i])
		}
	})
	regEW(NameNegate, "Element-wise negation.", func(_ *elementwise, xs []float64) {
		for i := range xs {
			xs[i] = -xs[i]
		}
	})
	regEW(NameClip, "Clamps every element into [lo, hi].",
		func(u *elementwise, xs []float64) {
			for i := range xs {
				xs[i] = math.Max(u.lo, math.Min(u.hi, xs[i]))
			}
		},
		units.ParamSpec{Name: "lo", Default: "-1", Description: "lower bound"},
		units.ParamSpec{Name: "hi", Default: "1", Description: "upper bound"},
	)
	regEW(NameNormalize, "Scales so the peak absolute value is 1 (no-op on all-zero input).",
		func(_ *elementwise, xs []float64) {
			var peak float64
			for _, v := range xs {
				peak = math.Max(peak, math.Abs(v))
			}
			if peak == 0 {
				return
			}
			for i := range xs {
				xs[i] /= peak
			}
		})
	regEW(NameCumSum, "Running sum (discrete integration).",
		func(_ *elementwise, xs []float64) {
			var acc float64
			for i := range xs {
				acc += xs[i]
				xs[i] = acc
			}
		})
	regEW(NameDiff, "First difference (discrete derivative); element 0 becomes 0.",
		func(_ *elementwise, xs []float64) {
			prev := 0.0
			if len(xs) > 0 {
				prev = xs[0]
				xs[0] = 0
			}
			for i := 1; i < len(xs); i++ {
				cur := xs[i]
				xs[i] = cur - prev
				prev = cur
			}
		})
	regEW(NameReverse, "Reverses element order.", func(_ *elementwise, xs []float64) {
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
	})
	regEW(NameSortValues, "Sorts elements ascending (order statistics for verification stages).",
		func(_ *elementwise, xs []float64) {
			// Insertion-free: use the stdlib via a tiny shim below.
			sortFloats(xs)
		})

	regReduce := func(name, desc string, fold func(xs []float64) float64) {
		units.Register(units.Meta{
			Name: name, Description: desc,
			In: 1, Out: 1,
			InTypes:  [][]string{{types.NameVec}},
			OutTypes: []string{types.NameConst},
		}, func() units.Unit { return &reduction{name: name, fold: fold} })
	}
	regReduce(NameRMSReduce, "Reduces to the root-mean-square amplitude.", func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var s float64
		for _, v := range xs {
			s += v * v
		}
		return math.Sqrt(s / float64(len(xs)))
	})
	regReduce(NameMinReduce, "Reduces to the minimum element (0 for empty input).", func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		m := xs[0]
		for _, v := range xs[1:] {
			m = math.Min(m, v)
		}
		return m
	})
	regReduce(NameMaxReduce, "Reduces to the maximum element (0 for empty input).", func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		m := xs[0]
		for _, v := range xs[1:] {
			m = math.Max(m, v)
		}
		return m
	})
	regReduce(NameZeroCross, "Counts sign changes — the crude frequency estimator used in the inspiral tests.", func(xs []float64) float64 {
		n := 0
		for i := 1; i < len(xs); i++ {
			if (xs[i-1] < 0) != (xs[i] < 0) {
				n++
			}
		}
		return float64(n)
	})
}
