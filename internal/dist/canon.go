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

// canon builds one encoding by appending to its own field, the reuse
// idiom the hot-path allocation analysis proves amortized: a simulator
// that keys its sample path with AppendCanon into a buffer it keeps
// stops growing it once it reaches the largest encoding it sees.
type canon struct{ b []byte }

func (c *canon) tag(t byte)      { c.b = append(c.b, t) }
func (c *canon) uint(v uint64)   { c.b = binary.LittleEndian.AppendUint64(c.b, v) }
func (c *canon) float(v float64) { c.uint(math.Float64bits(v)) }
func (c *canon) floats(v []float64) {
	for _, x := range v {
		c.float(x)
	}
}

// AppendCanon appends d's canonical encoding to b and returns the
// extended slice. Distribution types outside this package's catalog
// return an error; callers (the sweep engine) treat that as
// "uncacheable" and bypass memoization rather than risk a collision.
func AppendCanon(b []byte, d Dist) ([]byte, error) {
	c := canon{b: b}
	if err := c.dist(d); err != nil {
		return nil, err
	}
	return c.b, nil
}

func (c *canon) dist(d Dist) error {
	switch v := d.(type) {
	case Exponential:
		c.tag(canonExponential)
		c.float(v.Rate)
	case Deterministic:
		c.tag(canonDeterministic)
		c.float(v.Value)
	case Uniform:
		c.tag(canonUniform)
		c.float(v.Lo)
		c.float(v.Hi)
	case Pareto:
		c.tag(canonPareto)
		c.float(v.Xm)
		c.float(v.Alpha)
	case TruncatedPareto:
		c.truncatedPareto(v)
	case LogNormal:
		c.tag(canonLogNormal)
		c.float(v.Mu)
		c.float(v.Sigma)
	case Erlang:
		// Collection lengths are fixed-width so element payloads of one
		// distribution can never be parsed as the header of the next.
		c.tag(canonErlang)
		c.uint(uint64(v.K))
		c.float(v.Rate)
	case Hyperexponential:
		c.tag(canonHyperexponential)
		c.uint(uint64(len(v.P)))
		c.floats(v.P)
		c.floats(v.Rates)
	case *Empirical:
		c.tag(canonEmpiricalDigest)
		c.uint(uint64(len(v.values)))
		c.b = append(c.b, v.digest[:]...)
	case *Sequence:
		// Sequence is stateful: the replay cursor is part of the
		// identity, since two sequences at different positions produce
		// different sample streams.
		c.tag(canonSequence)
		c.uint(uint64(len(v.values)))
		c.floats(v.values)
		c.float(v.jitter)
		c.uint(uint64(v.idx))
	case Scaled:
		c.tag(canonScaled)
		c.float(v.Factor)
		return c.dist(v.Base)
	default:
		return fmt.Errorf("dist: no canonical encoding for %T", d)
	}
	return nil
}

// AppendCanonForRate appends the canonical encoding of ForRate(kind,
// rate), the bytes AppendCanon(b, ForRate(kind, rate)) appends, without
// boxing the distribution in an interface, so encoding a derived arrival
// process allocates nothing. It panics where ForRate does.
func AppendCanonForRate(b []byte, kind Kind, rate float64) []byte {
	if rate <= 0 {
		panic(fmt.Sprintf("dist: arrival rate %v must be positive", rate))
	}
	c := canon{b: b}
	switch kind {
	case KindExponential:
		c.tag(canonExponential)
		c.float(rate)
	case KindPareto:
		c.truncatedPareto(ParetoForRate(rate, ParetoAlpha, paretoCapFactor))
	case KindDeterministic:
		c.tag(canonDeterministic)
		c.float(1 / rate)
	default:
		panic(fmt.Sprintf("dist: unknown distribution kind %q", kind))
	}
	return c.b
}

func (c *canon) truncatedPareto(v TruncatedPareto) {
	c.tag(canonTruncatedPareto)
	c.float(v.Xm)
	c.float(v.Alpha)
	c.float(v.Max)
}
