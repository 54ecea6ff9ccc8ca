package satattack

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"bindlock/internal/interrupt"
	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
)

// exhaustiveBits bounds the exhaustive VerifyKey sweep: circuits up to this
// many inputs check every pattern, larger ones 2^exhaustiveBits patterns drawn
// from a fixed-seed splitmix64 stream, so every input is driven.
const exhaustiveBits = 16

// verifySeed seeds VerifyKey's pattern stream above exhaustiveBits inputs.
const verifySeed = 0x62696e646c6f636b

// checkBlocks is the number of 64-pattern blocks between context checks
// (1,024 patterns).
const checkBlocks = 16

// VerifyKey checks that the recovered key makes the locked circuit agree
// with the oracle. It is exhaustive up to 2^16 input combinations; above that
// it checks 2^16 patterns drawn from a fixed-seed stream, so the result is
// reproducible and every input is exercised. The sweep honours ctx. An
// optional RetryPolicy makes each oracle query resilient the same way
// Attack's are; once the policy is exhausted on a query, VerifyKey returns an
// error matching ErrOracleUnavailable rather than aborting on the first
// hiccup.
//
// Patterns are checked 64 at a time: the locked side always runs on the
// bit-sliced evaluator, and so does the oracle side when it is the plain
// OracleFromCircuit oracle. Any other oracle is queried pattern by pattern,
// in order, exactly as a per-pattern sweep would. A block that fails in any
// way is re-run pattern by pattern, so the error and the pattern it reports
// are those of the first failing pattern.
func VerifyKey(ctx context.Context, locked *netlist.Circuit, key []bool, oracle Oracle, policy ...RetryPolicy) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var rp RetryPolicy
	if len(policy) > 0 {
		rp = policy[0]
	}
	v := newVerifier(ctx, locked, key, oracle, newQuerier(oracle, rp, 1, 1, metrics.FromContext(ctx)))
	blocks := (v.patterns + 63) / 64
	for b := uint64(0); b < blocks; b++ {
		if b%checkBlocks == 0 {
			if err := interrupt.Check(ctx, "satattack: verify key", nil); err != nil {
				return err
			}
		}
		if err := v.block(b); err != nil {
			return err
		}
	}
	return nil
}

// ErrorCount compares the locked circuit under key with the oracle on every
// pattern and returns how many disagree in some output. Like VerifyKey it
// checks 64 patterns per block, on lanes on both sides when the oracle is
// OracleFromCircuit's, and one pattern at a time for any other oracle and
// for lanes that do not settle. It records no metrics: it measures a key,
// it does not attack one.
func ErrorCount(ctx context.Context, locked *netlist.Circuit, key []bool, oracle Oracle, patterns [][]bool) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, p := range patterns {
		if len(p) != len(locked.Inputs) {
			return 0, fmt.Errorf("satattack: error count: %d-bit pattern, circuit %s has %d inputs",
				len(p), locked.Name, len(locked.Inputs))
		}
	}
	v := newVerifier(ctx, locked, key, oracle, newQuerier(oracle, RetryPolicy{}, 1, 1, nil))
	err := v.sample(len(patterns), func(s int, in []bool) { copy(in, patterns[s]) })
	return v.wrong, err
}

// verifier compares the locked circuit under one key with an oracle, 64
// patterns at a time: VerifyKey's sweep and the sampled error counts of
// ErrorCount and ApproxAttack.
type verifier struct {
	ctx      context.Context
	locked   *netlist.Circuit
	key      []bool
	q        *querier
	patterns uint64
	random   bool   // patterns come from the splitmix64 stream
	state    uint64 // splitmix64 state
	in       []uint64
	got      *keyedLanes // locked side; nil when it cannot run on lanes
	want     *keyedLanes // oracle side; nil unless oracle is a circuitOracle
	// count makes a disagreement a tally instead of an error: wrong counts
	// the disagreeing patterns, compared every pattern checked so far.
	count           bool
	wrong, compared int
}

func newVerifier(ctx context.Context, locked *netlist.Circuit, key []bool, oracle Oracle, q *querier) *verifier {
	n := len(locked.Inputs)
	v := &verifier{
		ctx: ctx, locked: locked, key: key, q: q,
		patterns: uint64(1) << exhaustiveBits,
		random:   n > exhaustiveBits,
		state:    verifySeed,
		in:       make([]uint64, n),
	}
	if !v.random {
		v.patterns = uint64(1) << uint(n)
	}
	// A side that cannot be built leaves every block to the per-pattern
	// path, which reports the failure exactly as scalar evaluation does.
	v.got, _ = newKeyedLanes(locked, key)
	if co, ok := oracle.(circuitOracle); ok {
		v.want, _ = co.lanes()
	}
	return v
}

// block checks the 64 patterns of block b.
func (v *verifier) block(b uint64) error { return v.check(v.fill(b)) }

// check compares the first lanes patterns loaded in v.in.
func (v *verifier) check(lanes int) error {
	if v.got == nil {
		return v.perPattern(0, lanes)
	}
	got, gotX, err := v.got.eval(v.in)
	if err != nil {
		return v.perPattern(0, lanes)
	}
	mask := ^uint64(0) >> uint(64-lanes)
	if v.want != nil {
		want, wantX, err := v.want.eval(v.in)
		if err != nil || (gotX|wantX)&mask != 0 || len(got) != len(want) {
			return v.perPattern(0, lanes)
		}
		wrong := diffLanes(got, want) & mask
		if wrong != 0 && !v.count {
			return v.perPattern(0, lanes)
		}
		n := int64(lanes * v.q.votes)
		v.q.mreg.Add("retry_votes_total", n)
		v.q.mreg.Add("retry_oracle_attempts_total", n)
		v.q.calls += uint64(n)
		v.wrong += bits.OnesCount64(wrong)
		v.compared += lanes
		return nil
	}
	for l := 0; l < lanes; l++ {
		if gotX>>uint(l)&1 == 1 {
			return v.perPattern(l, lanes)
		}
		if err := v.compare(laneBits(v.in, l), laneBits(got, l)); err != nil {
			return err
		}
	}
	return nil
}

// perPattern checks lanes [from, to) of the current block one pattern at a
// time: scalar evaluation of the locked side, then one oracle query.
func (v *verifier) perPattern(from, to int) error {
	for l := from; l < to; l++ {
		in := laneBits(v.in, l)
		got, err := v.locked.Eval(in, v.key)
		if err != nil {
			return err
		}
		if err := v.compare(in, got); err != nil {
			return err
		}
	}
	return nil
}

// compare queries the oracle on one pattern and holds the locked side's
// outputs to its answer.
func (v *verifier) compare(in, got []bool) error {
	want, err := v.q.query(v.ctx, in)
	if err != nil {
		if v.count || errors.Is(err, interrupt.ErrCancelled) || errors.Is(err, interrupt.ErrBudgetExceeded) {
			return err
		}
		return fmt.Errorf("satattack: verify key at input %s: %w", patternString(in), err)
	}
	v.compared++
	for i := range got {
		if got[i] != want[i] {
			if v.count {
				v.wrong++
				return nil
			}
			return fmt.Errorf("satattack: key wrong at input %s output %d", patternString(in), i)
		}
	}
	return nil
}

// sample compares n patterns, drawn in order by draw into a scratch pattern,
// 64 to a block, and tallies the disagreements. ctx is checked before every
// 256th pattern; an error leaves wrong and compared covering the patterns
// compared before it.
func (v *verifier) sample(n int, draw func(s int, in []bool)) error {
	v.count = true
	pattern := make([]bool, len(v.in))
	for s := 0; s < n; s += 64 {
		if s%256 == 0 {
			if err := interrupt.Check(v.ctx, "satattack: sample errors", nil); err != nil {
				return err
			}
		}
		lanes := min(64, n-s)
		clear(v.in)
		for l := 0; l < lanes; l++ {
			draw(s+l, pattern)
			for i, b := range pattern {
				if b {
					v.in[i] |= 1 << uint(l)
				}
			}
		}
		if err := v.check(lanes); err != nil {
			return err
		}
	}
	return nil
}

// laneIndexBits are the input words of the low six pattern-index bits: in an
// exhaustive block, lane l carries pattern 64·b + l.
var laneIndexBits = [6]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

// fill loads block b's input words and returns how many lanes are patterns.
func (v *verifier) fill(b uint64) int {
	if v.random {
		for i := range v.in {
			v.in[i] = splitmix64(&v.state)
		}
		return 64
	}
	base := b * 64
	for i := range v.in {
		switch {
		case i < len(laneIndexBits):
			v.in[i] = laneIndexBits[i]
		case base>>uint(i)&1 == 1:
			v.in[i] = ^uint64(0)
		default:
			v.in[i] = 0
		}
	}
	return int(min(64, v.patterns-base))
}

// patternString renders an input pattern for error messages: as a hex value
// when it fits 64 bits, as a '0'/'1' string (LSB first) otherwise.
func patternString(in []bool) string {
	if len(in) > 64 {
		return bitsToString(in)
	}
	return fmt.Sprintf("%#x", netlist.BitsToUint64(in))
}

// keyedLanes is a 64-lane evaluator with one key broadcast to every lane.
type keyedLanes struct {
	ev   *netlist.LaneEval
	keys []uint64
}

func newKeyedLanes(c *netlist.Circuit, key []bool) (*keyedLanes, error) {
	ev, err := c.NewLaneEval()
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, len(key))
	for i, b := range key {
		if b {
			keys[i] = ^uint64(0)
		}
	}
	return &keyedLanes{ev: ev, keys: keys}, nil
}

func (k *keyedLanes) eval(in []uint64) ([]uint64, uint64, error) { return k.ev.Eval(in, k.keys) }

// diffLanes returns the lanes in which two equally long output word vectors
// differ in some output.
func diffLanes(a, b []uint64) uint64 {
	var d uint64
	for i := range a {
		d |= a[i] ^ b[i]
	}
	return d
}

// laneBits extracts lane l of a word per bit.
func laneBits(words []uint64, l int) []bool {
	bits := make([]bool, len(words))
	for i, w := range words {
		bits[i] = w>>uint(l)&1 == 1
	}
	return bits
}

// splitmix64 advances the state and returns the next output of Vigna's
// splitmix64 generator.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
