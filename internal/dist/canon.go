package dist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Canonical byte encoding of distributions, consumed by internal/sweep's
// memoization fingerprint. Two distributions that generate identical
// sample streams for every RNG must encode to identical bytes, and any
// parameter change must change the bytes. Each encoding starts with a
// distinct type tag, and every numeric parameter is written as its exact
// IEEE-754 bit pattern, so no formatting or rounding can alias two
// different distributions — except that Empirical samples are written as
// their 128-bit content digest, computed once by NewEmpirical.

// canon type tags. The numeric values are part of the fingerprint format:
// never reorder or reuse them, only append.
const (
	canonExponential byte = iota + 1
	canonDeterministic
	canonUniform
	canonPareto
	canonTruncatedPareto
	canonLogNormal
	canonErlang
	canonHyperexponential
	canonEmpirical // raw samples; retired, superseded by canonEmpiricalDigest
	canonMixture   // retired with the Mixture distribution; never reuse
	canonSequence
	canonScaled
	canonEmpiricalDigest
)

// appendFloat appends v's IEEE-754 bit pattern, little-endian.
func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendLen appends a collection length, fixed-width so element payloads
// of one distribution can never be parsed as the header of the next.
func appendLen(b []byte, n int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(n))
}

// AppendCanon appends d's canonical encoding to b and returns the
// extended slice. Distribution types outside this package's catalog
// return an error; callers (the sweep engine) treat that as
// "uncacheable" and bypass memoization rather than risk a collision.
func AppendCanon(b []byte, d Dist) ([]byte, error) {
	switch v := d.(type) {
	case Exponential:
		return appendExponential(b, v), nil
	case Deterministic:
		return appendDeterministic(b, v), nil
	case Uniform:
		return appendFloat(appendFloat(append(b, canonUniform), v.Lo), v.Hi), nil
	case Pareto:
		return appendFloat(appendFloat(append(b, canonPareto), v.Xm), v.Alpha), nil
	case TruncatedPareto:
		return appendTruncatedPareto(b, v), nil
	case LogNormal:
		return appendFloat(appendFloat(append(b, canonLogNormal), v.Mu), v.Sigma), nil
	case Erlang:
		b = appendLen(append(b, canonErlang), v.K)
		return appendFloat(b, v.Rate), nil
	case Hyperexponential:
		b = appendLen(append(b, canonHyperexponential), len(v.P))
		for _, p := range v.P {
			b = appendFloat(b, p)
		}
		for _, r := range v.Rates {
			b = appendFloat(b, r)
		}
		return b, nil
	case *Empirical:
		b = appendLen(append(b, canonEmpiricalDigest), len(v.values))
		return append(b, v.digest[:]...), nil
	case *Sequence:
		// Sequence is stateful: the replay cursor is part of the
		// identity, since two sequences at different positions produce
		// different sample streams.
		b = appendLen(append(b, canonSequence), len(v.values))
		for _, s := range v.values {
			b = appendFloat(b, s)
		}
		b = appendFloat(b, v.jitter)
		return appendLen(b, v.idx), nil
	case Scaled:
		b = appendFloat(append(b, canonScaled), v.Factor)
		return AppendCanon(b, v.Base)
	default:
		return nil, fmt.Errorf("dist: no canonical encoding for %T", d)
	}
}

// AppendCanonForRate appends the canonical encoding of ForRate(kind,
// rate), the bytes AppendCanon(b, ForRate(kind, rate)) appends, without
// boxing the distribution in an interface, so encoding a derived arrival
// process allocates nothing. It panics where ForRate does.
func AppendCanonForRate(b []byte, kind Kind, rate float64) []byte {
	if rate <= 0 {
		panic(fmt.Sprintf("dist: arrival rate %v must be positive", rate))
	}
	switch kind {
	case KindExponential:
		return appendExponential(b, NewExponential(rate))
	case KindPareto:
		return appendTruncatedPareto(b, ParetoForRate(rate, ParetoAlpha, paretoCapFactor))
	case KindDeterministic:
		return appendDeterministic(b, Deterministic{Value: 1 / rate})
	default:
		panic(fmt.Sprintf("dist: unknown distribution kind %q", kind))
	}
}

func appendExponential(b []byte, v Exponential) []byte {
	return appendFloat(append(b, canonExponential), v.Rate)
}

func appendDeterministic(b []byte, v Deterministic) []byte {
	return appendFloat(append(b, canonDeterministic), v.Value)
}

func appendTruncatedPareto(b []byte, v TruncatedPareto) []byte {
	b = appendFloat(append(b, canonTruncatedPareto), v.Xm)
	return appendFloat(appendFloat(b, v.Alpha), v.Max)
}
