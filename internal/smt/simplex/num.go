package simplex

import (
	"math"
	"math/big"
)

// num is an exact rational. Values whose numerator and denominator fit
// in an int64 are held inline; an operation whose result does not fit
// promotes it to a *big.Rat, and a big result that fits again is
// demoted, so overflow never loses precision.
//
// The zero value is 0. Inline values are reduced, with d == 0 standing
// for the denominator 1 (every integer) and d ≥ 2 otherwise; the
// numerator is never math.MinInt64, so negation and absolute values of
// inline values cannot overflow.
type num struct {
	n, d int64
	r    *big.Rat // non-nil for promoted values; n and d are then unused
}

func intNum(v int64) num {
	if v == math.MinInt64 {
		return num{r: new(big.Rat).SetInt64(v)}
	}
	return num{n: v}
}

// fromRat returns r as a num, inline when it fits. r is not retained
// when it fits and is owned by the result otherwise.
func fromRat(r *big.Rat) num {
	if r.Num().IsInt64() && r.Denom().IsInt64() {
		n, d := r.Num().Int64(), r.Denom().Int64()
		if n != math.MinInt64 {
			if d == 1 {
				d = 0
			}
			return num{n: n, d: d}
		}
	}
	return num{r: r}
}

// frac returns the reduced inline fraction n/d (d > 0), promoting when
// the result cannot be held inline.
func frac(n, d int64) num {
	if n == math.MinInt64 {
		return fromRat(new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d)))
	}
	if g := gcd(abs(n), d); g > 1 {
		n, d = n/g, d/g
	}
	if d == 1 {
		d = 0
	}
	return num{n: n, d: d}
}

func (a num) den() int64 {
	if a.d == 0 {
		return 1
	}
	return a.d
}

// rat returns a fresh *big.Rat holding a.
func (a num) rat() *big.Rat {
	if a.r != nil {
		return new(big.Rat).Set(a.r)
	}
	return new(big.Rat).SetFrac64(a.n, a.den())
}

func (a num) sign() int {
	if a.r != nil {
		return a.r.Sign()
	}
	switch {
	case a.n > 0:
		return 1
	case a.n < 0:
		return -1
	}
	return 0
}

func (a num) isZero() bool { return a.r == nil && a.n == 0 }

func (a num) isInt() bool {
	if a.r != nil {
		return a.r.IsInt()
	}
	return a.d == 0
}

// int64 returns a's integer value truncated to 64 bits; a must be an
// integer.
func (a num) int64() int64 {
	if a.r != nil {
		return a.r.Num().Int64()
	}
	return a.n
}

func (a num) neg() num {
	if a.r != nil {
		return fromRat(new(big.Rat).Neg(a.r))
	}
	return num{n: -a.n, d: a.d}
}

func (a num) add(b num) num {
	if a.r == nil && b.r == nil {
		if a.d == 0 && b.d == 0 {
			if s, ok := add64(a.n, b.n); ok {
				return intNum(s)
			}
		} else if x, ok := mul64(a.n, b.den()); ok {
			if y, ok := mul64(b.n, a.den()); ok {
				if s, ok := add64(x, y); ok {
					if d, ok := mul64(a.den(), b.den()); ok {
						return frac(s, d)
					}
				}
			}
		}
	}
	return fromRat(a.rat().Add(a.rat(), b.rat()))
}

func (a num) sub(b num) num { return a.add(b.neg()) }

func (a num) mul(b num) num {
	if a.r == nil && b.r == nil {
		if a.d == 0 && b.d == 0 {
			if p, ok := mul64(a.n, b.n); ok {
				return intNum(p)
			}
		} else if n, ok := mul64(a.n, b.n); ok {
			if d, ok := mul64(a.den(), b.den()); ok {
				return frac(n, d)
			}
		}
	}
	return fromRat(a.rat().Mul(a.rat(), b.rat()))
}

// inv returns 1/a; a must be non-zero.
func (a num) inv() num {
	if a.r == nil {
		if a.n < 0 {
			return num{n: -a.den(), d: normDen(-a.n)}
		}
		return num{n: a.den(), d: normDen(a.n)}
	}
	return fromRat(new(big.Rat).Inv(a.r))
}

func normDen(d int64) int64 {
	if d == 1 {
		return 0
	}
	return d
}

func (a num) quo(b num) num { return a.mul(b.inv()) }

func (a num) cmp(b num) int {
	if a.r == nil && b.r == nil {
		if a.d == 0 && b.d == 0 {
			switch {
			case a.n < b.n:
				return -1
			case a.n > b.n:
				return 1
			}
			return 0
		}
		if x, ok := mul64(a.n, b.den()); ok {
			if y, ok := mul64(b.n, a.den()); ok {
				switch {
				case x < y:
					return -1
				case x > y:
					return 1
				}
				return 0
			}
		}
	}
	return a.rat().Cmp(b.rat())
}

// floor returns the greatest integer not above a.
func (a num) floor() num {
	if a.r == nil {
		if a.d == 0 {
			return a
		}
		q := a.n / a.d
		if a.n < 0 {
			q--
		}
		return intNum(q)
	}
	q := new(big.Int).Div(a.r.Num(), a.r.Denom()) // Euclidean: floors for d > 0
	return fromRat(new(big.Rat).SetInt(q))
}

func (a num) String() string { return a.rat().RatString() }

func add64(a, b int64) (int64, bool) {
	c := a + b
	if (a >= 0) == (b >= 0) && (c >= 0) != (a >= 0) {
		return 0, false
	}
	return c, true
}

func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	c := a * b
	if c/b != a {
		return 0, false
	}
	return c, true
}

func abs(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
