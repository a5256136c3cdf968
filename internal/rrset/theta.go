package rrset

import "math"

// LnChoose returns ln C(n, s) computed via log-gamma, stable for the large
// n (millions) and s (thousands) the scalability experiments reach.
func LnChoose(n int64, s int64) float64 {
	if s < 0 || s > n {
		return math.Inf(-1)
	}
	if s == 0 || s == n {
		return 0
	}
	lg := func(x float64) float64 {
		v, _ := math.Lgamma(x)
		return v
	}
	return lg(float64(n)+1) - lg(float64(s)+1) - lg(float64(n-s)+1)
}

// L evaluates Eq. 5 of the paper (Tang et al.'s sample-size bound):
//
//	L(s, ε) = (8 + 2ε) · n · (ℓ·ln n + ln C(n,s) + ln 2) / (OPT_s · ε²)
//
// optLB must be a lower bound on OPT_s (the best IC spread achievable with
// s seeds); KPT estimation (package tim) provides one. Sampling at least
// ⌈L⌉ RR-sets makes n·F_R(S) an (ε/2·OPT_s)-accurate spread estimate for
// every |S| ≤ s with probability ≥ 1 − n^−ℓ / C(n,s) (Proposition 2).
func L(n int64, s int64, eps, ell, optLB float64) float64 {
	if n <= 0 || s <= 0 {
		return 0
	}
	if optLB < 1 {
		optLB = 1 // spread of any nonempty seed set is ≥ 1 under IC
	}
	ln := math.Log(float64(n))
	num := (8 + 2*eps) * float64(n) * (ell*ln + LnChoose(n, s) + math.Ln2)
	return num / (optLB * eps * eps)
}

// Theta returns ⌈L(s,ε)⌉ clamped into [minTheta, maxTheta]. TIRM grows the
// per-ad sample lazily, so the floor keeps tiny instances statistically
// sane and the ceiling protects against degenerate optLB values. A bound
// past math.MaxInt (a tiny ε) saturates there instead of wrapping.
func Theta(n int64, s int64, eps, ell, optLB float64, minTheta, maxTheta int) int {
	v := math.Ceil(L(n, s, eps, ell, optLB))
	th := math.MaxInt
	if v < float64(math.MaxInt) {
		th = int(v)
	}
	if th < minTheta {
		th = minTheta
	}
	if maxTheta > 0 && th > maxTheta {
		th = maxTheta
	}
	return th
}
